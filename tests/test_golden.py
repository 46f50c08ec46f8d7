"""Golden outputs: a fixed CLI corpus stays byte-identical.

Every command of a small corpus runs in process through
``privsample.cli.main``.  The sha256 of each output file, and of each
command's stdout where it prints one, is compared with the digest recorded
at commit def6c78; ``nrmse.csv`` was re-recorded when the baseline's
adaptive quadrature gave way to a fixed rule (last digits moved).  The
``sample --aggregate`` entry and the pps, delta and file-histogram sweeps
were recorded at commit e05e90f; the pps sweep is the only corpus path
through the quadrature of ``sampled_sbh_report_prob``.  The sbh
concordance, plain ``baseline sbh``, alg4 moments and the ``pij --out -``
export to stdout were recorded at commit c4a6b6d, before the writers moved
from ``csv.writer`` to preformatted blocks of lines.  When the tables
came to be stored as bands, four printed reductions were re-recorded,
because their sums now run over each row's band instead of over every
token, in another order: ``verify-dp-alg5`` (the worst divergence moved
by 1.7e-16 of itself), ``moments-mle`` and ``moments-alg4-mle`` (at most
1.6e-13 of a value, on ``Var_i``, which is MSE less bias squared) and
``nrmse`` (6.2e-16 of a value).  No table entry moved.  ``pdfs-pps``,
the densities under pps sampling, was recorded at commit 1f5985d, before
``compute_pdfs`` came to solve every row with one clamped crossover step.
``sample-ppswor-power`` (ppswor with power 1.5, where a float pow can round
either way) and ``baseline-sampled-sbh-ppswor`` (ppswor on real-valued
noised frequencies) were recorded at commit 32706eb, before the sampler came
to compare each key's uniform with the q_w its tables condition on.
``concordance-sbh-kendall`` was recorded when ``--kendall`` came to accept
``--method sbh``, which had been a usage error; its CSV has the digest of
``concordance-sbh``, the same command without ``--kendall``.
``pdfs-large-epsilon`` and ``pij-alg5-large-epsilon`` (epsilon 8.875, delta
0.1, m = 19, where alg5 exceeds delta by 1.1e-12) were recorded at commit
53262b9, before ``compute_pdfs`` came to split each row's grid once at b and
once at c.
``concordance-kendall`` (both its CSV and its stdout) was re-recorded when
``concordance_matrix`` came to sum each pair as one product over the token
span of a block of bands, in another order than the dense rows' two
products: 929 of 1,225 concordances moved, by at most 7.8e-16, and the
printed tau by 4.8e-17.
A change that alters outputs on purpose re-records the digests by printing
``corpus_digests(tmp_dir)`` and says so in CHANGES.md.

Unbiased coefficients stay at frequencies <= 40: further out the exact
coefficients explode and alternate in sign, so any reordering of the
arithmetic changes their floats, and the unbiased moments CSV is left out
too.
"""

import contextlib
import hashlib
import io

from privsample.cli import main

PRIV = ["--epsilon", "0.5", "--delta", "0.001"]
PPSWOR = ["--scheme", "ppswor", "--tau", "0.05"]
PPS = ["--scheme", "pps", "--tau", "0.02", "--power", "0.5"]
# large epsilon: from row 2 on, each alg5 crossover falls in its grid's top segment
LARGE_EPS = ["--epsilon", "8.875", "--delta", "0.1", "--max-freq", "19"]


def _corpus(d):
    """(name, argv, output files) per command, in run order."""
    hist, s_ppswor, s_pps = d / "hist.tsv", d / "sample_ppswor.tsv", d / "sample_pps.tsv"
    keys_ppswor = [*PRIV, *PPSWOR, "--input", str(s_ppswor)]
    m = ["--max-freq", "120"]  # the corpus maximum
    return [
        ("sample-ppswor", ["sample", "--input", str(hist), *PPSWOR, "--seed", "1",
                           "--out", str(s_ppswor)], [s_ppswor]),
        ("sample-pps", ["sample", "--input", str(hist), *PPS, "--seed", "2",
                        "--out", str(s_pps)], [s_pps]),
        ("sanitize-keys", ["sanitize", "--mode", "keys", *keys_ppswor, *m, "--seed", "3",
                           "--out", str(d / "keys.txt")], [d / "keys.txt"]),
        ("sanitize-keys-pps", ["sanitize", "--mode", "keys", *PRIV, *PPS, "--input", str(s_pps),
                               *m, "--seed", "3", "--out", str(d / "keys_pps.txt")],
         [d / "keys_pps.txt"]),
        ("sanitize-alg4", ["sanitize", "--mode", "freqs", "--table", "alg4", *keys_ppswor,
                           *m, "--seed", "4", "--out", str(d / "freqs4.tsv")], [d / "freqs4.tsv"]),
        ("sanitize-alg5", ["sanitize", "--mode", "freqs", "--table", "alg5", *keys_ppswor,
                           "--max-freq", "130", "--seed", "5", "--out", str(d / "freqs5.tsv")],
         [d / "freqs5.tsv"]),
        ("estimate-mle", ["estimate", "--input", str(d / "freqs4.tsv"), *PRIV, *PPSWOR,
                          "--max-freq", "150", "--estimator", "mle"], []),
        ("estimate-unbiased", ["estimate", "--input", str(d / "freqs4.tsv"), *PRIV, *PPSWOR,
                               "--max-freq", "40", "--estimator", "unbiased",
                               "--select", str(d / "low.txt")], []),
        ("estimate-mle-alg5", ["estimate", "--input", str(d / "freqs5.tsv"), *PRIV, *PPSWOR,
                               "--max-freq", "150", "--table", "alg5", "--g-power", "0.5"], []),
        ("baseline-sampled-sbh", ["baseline", "sampled-sbh", "--input", str(hist), *PRIV, *PPS,
                                  "--seed", "6", "--out", str(d / "sbh.tsv")], [d / "sbh.tsv"]),
        ("pi", ["pi", "--epsilon", "0.1", "--delta", "0.01", "--scheme", "ppswor", "--tau", "0.1",
                "--power", "2", "--max-freq", "150", "--out", str(d / "pi.csv")], [d / "pi.csv"]),
        ("pij-alg4", ["pij", *PRIV, *PPS, "--max-freq", "100", "--table", "alg4",
                      "--out", str(d / "pij4.csv")], [d / "pij4.csv"]),
        ("pij-alg5", ["pij", "--epsilon", "0.1", "--delta", "0.01", *PPSWOR, "--max-freq", "100",
                      "--table", "alg5", "--out", str(d / "pij5.csv")], [d / "pij5.csv"]),
        ("pdfs", ["pdfs", *PRIV, "--max-freq", "60", "--segments-out", str(d / "seg.csv"),
                  "--atoms-out", str(d / "atoms.csv")], [d / "seg.csv", d / "atoms.csv"]),
        ("verify-dp-alg4", ["verify-dp", *PRIV, "--table", str(d / "pij4.csv")], []),
        ("verify-dp-alg5", ["verify-dp", "--epsilon", "0.1", "--delta", "0.01",
                            "--table", str(d / "pij5.csv")], []),
        ("verify-dp-pi", ["verify-dp", "--epsilon", "0.1", "--delta", "0.01",
                          "--table", str(d / "pi.csv"), "--kind", "pi"], []),
        ("moments-mle", ["analyze", "moments", *PRIV, *PPSWOR, "--max-freq", "120",
                         "--table", "alg5", "--out", str(d / "moments.csv")],
         [d / "moments.csv"]),
        ("nrmse", ["analyze", "nrmse", *PRIV, "--grid", "1,0.1", "--dist", "uniform",
                   "--n-keys", "1000", "--freq-min", "1", "--freq-max", "40",
                   "--out", str(d / "nrmse.csv")], [d / "nrmse.csv"]),
        ("sweep", ["analyze", "sweep", *PRIV, "--scheme", "ppswor", "--grid", "0.5,0.05",
                   "--dist", "zipf", "--n-keys", "2000", "--w-max", "60",
                   "--out", str(d / "sweep.csv")], [d / "sweep.csv"]),
        ("concordance-kendall", ["analyze", "concordance", *PRIV, *PPS, "--max-freq", "50",
                                 "--kendall", "--dist", "uniform", "--n-keys", "500",
                                 "--freq-max", "50", "--out", str(d / "conc.csv")],
         [d / "conc.csv"]),
        ("sample-aggregate", ["sample", "--aggregate", "--input", str(d / "elements.txt"),
                              *PPSWOR, "--seed", "7", "--out", str(d / "agg.tsv")],
         [d / "agg.tsv"]),
        ("sweep-pps", ["analyze", "sweep", *PRIV, "--scheme", "pps", "--power", "0.5",
                       "--grid", "0.5,0.05", "--dist", "zipf", "--n-keys", "2000",
                       "--w-max", "60", "--out", str(d / "sweep_pps.csv")],
         [d / "sweep_pps.csv"]),
        ("sweep-delta", ["analyze", "sweep", "--epsilon", "0.5", "--sweep", "delta",
                         "--scheme", "none", "--grid", "0.1,0.001", "--dist", "uniform",
                         "--n-keys", "1000", "--freq-max", "60",
                         "--out", str(d / "sweep_delta.csv")], [d / "sweep_delta.csv"]),
        ("sweep-file", ["analyze", "sweep", *PRIV, "--grid", "0.5,0.05",
                        "--dist", "file", "--input", str(hist),
                        "--out", str(d / "sweep_file.csv")], [d / "sweep_file.csv"]),
        ("concordance-sbh", ["analyze", "concordance", *PRIV, "--method", "sbh", "--max-freq", "40",
                             "--out", str(d / "conc_sbh.csv")], [d / "conc_sbh.csv"]),
        ("baseline-sbh", ["baseline", "sbh", "--input", str(hist), *PRIV, "--seed", "8",
                          "--out", str(d / "sbh_plain.tsv")], [d / "sbh_plain.tsv"]),
        ("moments-alg4-mle", ["analyze", "moments", *PRIV, *PPSWOR, "--max-freq", "120",
                              "--table", "alg4", "--estimator", "mle",
                              "--out", str(d / "moments4.csv")], [d / "moments4.csv"]),
        ("pij-stdout", ["pij", "--epsilon", "0.1", "--delta", "0.01", "--max-freq", "60",
                        "--out", "-"], []),
        ("pdfs-pps", ["pdfs", *PRIV, *PPS, "--max-freq", "60",
                      "--segments-out", str(d / "seg_pps.csv"),
                      "--atoms-out", str(d / "atoms_pps.csv")],
         [d / "seg_pps.csv", d / "atoms_pps.csv"]),
        ("sample-ppswor-power", ["sample", "--input", str(hist), "--scheme", "ppswor",
                                 "--tau", "0.1", "--power", "1.5", "--seed", "9",
                                 "--out", str(d / "sample_power.tsv")], [d / "sample_power.tsv"]),
        ("baseline-sampled-sbh-ppswor", ["baseline", "sampled-sbh", "--input", str(hist), *PRIV,
                                         *PPSWOR, "--seed", "10", "--out", str(d / "sbh_ppswor.tsv")],
         [d / "sbh_ppswor.tsv"]),
        ("concordance-sbh-kendall", ["analyze", "concordance", *PRIV, "--method", "sbh",
                                     "--max-freq", "40", "--kendall", "--dist", "uniform",
                                     "--n-keys", "500", "--freq-max", "40",
                                     "--out", str(d / "conc_sbh_kendall.csv")],
         [d / "conc_sbh_kendall.csv"]),
        ("pdfs-large-epsilon", ["pdfs", *LARGE_EPS, "--segments-out", str(d / "seg_large_eps.csv"),
                                "--atoms-out", str(d / "atoms_large_eps.csv")],
         [d / "seg_large_eps.csv", d / "atoms_large_eps.csv"]),
        ("pij-alg5-large-epsilon", ["pij", *LARGE_EPS, "--table", "alg5",
                                    "--out", str(d / "pij5_large_eps.csv")],
         [d / "pij5_large_eps.csv"]),
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_digests(d) -> dict:
    """Run the corpus in directory ``d``; map each stdout and output file to its sha256."""
    freqs = {f"k{j}": 1 + (j * j * 7919 + 3 * j) % 120 for j in range(3000)}
    (d / "hist.tsv").write_text("".join(f"{k}\t{w}\n" for k, w in freqs.items()))
    (d / "low.txt").write_text("".join(f"{k}\n" for k, w in freqs.items() if w <= 40))
    (d / "elements.txt").write_text("".join(
        f"e{k}\n" for r in range(17) for k in range(300) if k % 17 >= r))
    digests = {}
    for name, argv, outputs in _corpus(d):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, f"{name} exited {code}"
        if buf.getvalue():
            digests[f"{name}:stdout"] = _sha(buf.getvalue().encode())
        for path in outputs:
            digests[f"{name}:{path.name}"] = _sha(path.read_bytes())
    return digests


GOLDEN = {
    "sample-ppswor:sample_ppswor.tsv": "4b9b01d49e78d5a7d2eda74fda60a1f6b4ef2f6cf18323cd37a9086807efdadd",
    "sample-pps:sample_pps.tsv": "acc143a928b656a6e941071ba023464dbf6cc96bdfe37c36f16bfa93e73099a2",
    "sanitize-keys:keys.txt": "d7403d1ad3478cbfdee4fd7ab4482611d9837cab19615b9cffa57fc46b32efaa",
    "sanitize-keys-pps:keys_pps.txt": "ce60769f332b4234d8aaf1099736d049a2b5faf0e1d5751fa2ba0979578467b1",
    "sanitize-alg4:freqs4.tsv": "4a5aa9292fd2bd3d70d1b78d6a486eee672e3a08046e71d5485dee5f1522216a",
    "sanitize-alg5:freqs5.tsv": "6d05023bba4624c6ebc54d0ea92d41eb1f90e4d63f4678d5f26b128f345154a5",
    "estimate-mle:stdout": "f1807204542f920f0f6724a4067f296bb4ad44e42238d156b4899b2bff71113b",
    "estimate-unbiased:stdout": "80c114ff22a33eed27984bb2e4c2470adc62a7a2bd3a77cbafc5c399b816eef7",
    "estimate-mle-alg5:stdout": "7950a7aa8d73458a7ac1fb1ef6544eab6762968d83cae7fc69e9a111e48074b4",
    "baseline-sampled-sbh:sbh.tsv": "f6108581ef452b8ed032850595671259d26835acbe7c9d5341201e87bb5e37d6",
    "pi:pi.csv": "8d23de27f1c42d9cc2ffd3d0e3aa5bf83ea8465270eb21b295e640832a2396ec",
    "pij-alg4:pij4.csv": "71eba21532d373bdaee9d75c44a46c036e08151e937ea8f0e38da362c6275c2b",
    "pij-alg5:pij5.csv": "e229f4e6410bce459cb1ed1bdb0e369060419786857e2eb59d05d0c49fe6156c",
    "pdfs:seg.csv": "9664d2ec058205dfa11aae95c5ca697426ef4e919d880310e1536bee1b71be45",
    "pdfs:atoms.csv": "14f6ec466a4d2c0ffffd7ecbfbee29df311829b23f4f5c7230d214c54b1a9475",
    "verify-dp-alg4:stdout": "6c4ac2d4d1c029109d4ca5b711a2e193955860138a959539cff503ae03b802ea",
    "verify-dp-alg5:stdout": "7fa3ceed47e495401552b542dbec65a4898e5f59748605344ec301051471a624",
    "verify-dp-pi:stdout": "f85ac4508e511642963c07a92b39abf5b81ed74a6729c1591c39de16868b012a",
    "moments-mle:moments.csv": "42cd8b1c990e60e00aa80f5c3057321dabfbdd73ab488aa06905d5b4e70504d9",
    "nrmse:nrmse.csv": "8826ea44380668d663d71f7ebb7cfdcb1b2e65fc74704a47f824ff8e30cb3b4e",
    "sweep:sweep.csv": "88f39fcb8e1cc9635b6c5e141231824ec57f86bb1318f602ad36935f486e55cc",
    "concordance-kendall:stdout": "d590200aea6c4ba2448d6cd07a48cfd5ca274fcc39cf6091ec440d0fd369fc92",
    "concordance-kendall:conc.csv": "ffefa24c6d66136e291d73ee7ebec7c0e434f5b95eb5a382d9004c1c561f62b9",
    "sample-aggregate:agg.tsv": "f01575727bc73506fe5409b0a54fa546f39ca519be1a5779ff2ba3d75c726099",
    "sweep-pps:sweep_pps.csv": "1246c769fdb6b498c5d86bd97bb183abb29654c0b5c01e7b0d2cd30133cd4469",
    "sweep-delta:sweep_delta.csv": "bedc4ac78d7ddb7f709666dff1b3ad1383d9d2516fc83d55dba58107ffb92758",
    "sweep-file:sweep_file.csv": "44c37a0f9754f5a633bcb7359b7f21ee254dde8d8f0653f81decb644325b357f",
    "concordance-sbh:conc_sbh.csv": "6819c52cea26a096ad4d6101f04068d475f52958617c0c80c534708290f564fe",
    "baseline-sbh:sbh_plain.tsv": "1d989cb6cbc007b738ae03cab92ddf01ed4dd90341bab24a39e10b0310362459",
    "moments-alg4-mle:moments4.csv": "4de67864f8cd8552122379e64b39060fae7ba040bb11b88c7ca987b020a0d12c",
    "pij-stdout:stdout": "292e8ddcc2fc639c6e2d4a31f16fd0e50f9ae57193fe0a8498093813d661985d",
    "pdfs-pps:seg_pps.csv": "71b2c43cc1c6a5fcf5668784e2bf825a07a0fd29a25a24dcc9969689294f5231",
    "pdfs-pps:atoms_pps.csv": "f8c6df73dec73197fd33473429781618716df8eeb0a915d08686d1a1b5907e38",
    "sample-ppswor-power:sample_power.tsv": "cbab38c5f4923f879725bc0670dc31c1e6bff5cc797b57d7296bfe3adea851c5",
    "baseline-sampled-sbh-ppswor:sbh_ppswor.tsv": "e0c4ffc9185be45c5790c0af8eb16aa4e9cd3638ca853a8c7680f94cd5ef2289",
    "concordance-sbh-kendall:stdout": "7dbc45700ef406890c19df8f81a9aff3d426c11f9032e8abcc555073274ae089",
    "concordance-sbh-kendall:conc_sbh_kendall.csv": "6819c52cea26a096ad4d6101f04068d475f52958617c0c80c534708290f564fe",
    "pdfs-large-epsilon:seg_large_eps.csv": "e2f991a4c6a57d6a18e8eba3b1e68f795a9f394738a00887380e0f7005fe9f02",
    "pdfs-large-epsilon:atoms_large_eps.csv": "abaa8194d3fcd523edc1adece44f77f749591e25cf0a0eed485354c427c25457",
    "pij-alg5-large-epsilon:pij5_large_eps.csv": "7c549054301f63d33ff8a62602f38a6184209de893a99a7405271ba16f783572",
}


def test_corpus_outputs_unchanged(tmp_path):
    got = corpus_digests(tmp_path)
    changed = {name: digest for name, digest in got.items() if GOLDEN.get(name) != digest}
    for name, digest in changed.items():
        print(f"{name}: {digest}")
    assert set(got) == set(GOLDEN)
    assert not changed, f"outputs changed: {sorted(changed)}"
