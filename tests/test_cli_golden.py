"""Golden CLI output: the exact bytes each argv below prints, in every format.

Each case pins the sha256 of the exit code, stdout and stderr, so a change
to the rendering code that alters one byte of one format fails here.  To
see what a case prints, run ``PYTHONPATH=src python -m goldmean.cli <argv>``.
One more digest pins every distinct argv of the benchmark corpora at once.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from goldmean.cli import run
from test_cli_dispatch import corpus

FORMATS = ("text", "json", "tsv")

#: argv without --format; each runs in all three formats
COMMANDS = {
    "solve-n2": ("solve", "--n", "2", "--m", "2"),
    "solve-n2-digits": ("solve", "--n", "2", "--m", "7", "--digits", "40"),
    "solve-n3": ("solve", "--n", "3", "--m", "2"),
    "mmf": ("mmf", "--n", "3", "--p", "2", "--sign", "minus", "--m", "2"),
    "stakhov": ("stakhov", "--n", "3", "--variant", "b"),
    "euler": ("euler", "--a", "0", "--n", "2", "--x", "1/2", "--mode", "constrained"),
    "metallic": ("metallic", "--p", "3", "--q", "7/4", "--digits", "25"),
    "metallic-cf": ("metallic", "--p", "2", "--q", "5/3", "--cf-terms", "12"),
    "metallic-cf-integer": ("metallic", "--p", "2", "--q", "1", "--cf-terms", "5"),
    "metallic-cf-rational": ("metallic", "--p", "1", "--q", "2", "--cf-terms", "4"),
    # surd shapes: parts over denominators 2 and 100000, a 24-term period,
    # a rational expansion cut short (13/8 = [1; 1, 1, 1, 2]) and a zero root
    "metallic-tiny-q": ("metallic", "--p", "1", "--q", "1/10000000000", "--digits", "40"),
    "metallic-cf-long-period": ("metallic", "--p", "7", "--q", "3/11", "--cf-terms", "40"),
    "metallic-cf-truncated-rational": ("metallic", "--p", "1", "--q", "65/64", "--cf-terms", "2"),
    "solve-n2-zero-root": ("solve", "--n", "2", "--m", "0"),
    "table1": ("table1", "--rows", "5", "--side", "both"),
    "table1-right": ("table1", "--rows", "3", "--side", "right"),
    "diophantus": ("diophantus", "--count", "7"),
    "harmonic-grid": ("harmonic", "--size", "6"),
    "harmonic-doublets": ("harmonic", "--size", "8", "--doublets"),
    "harmonic-key": ("harmonic", "--size", "8", "--key", "5"),
    "harmonic-doublets-key": ("harmonic", "--size", "8", "--doublets", "--key", "5"),
}

#: argv that fail: a usage error (exit 1) and a domain error (exit 2)
ERRORS = {
    "usage-missing-m": ("solve", "--n", "2"),
    "domain-degenerate": ("mmf", "--n", "1", "--p", "1", "--sign", "minus", "--m", "4"),
}

GOLDEN = {
    "diophantus-json": "78caa68fc9856607aa25025aa5e69c8ab5a6f5d66d2da81ff3a9c7fe9965caa3",
    "diophantus-text": "42039465d536fcd6e6358813a5a1de2afd9f7d223de09a8f2d7f764d3ee5ef1a",
    "diophantus-tsv": "80182f420523aab718fe55f41f7346b6aa4b2110eb8b89bf2b1b350f0063f830",
    "domain-degenerate": "7aaff4306af062bdac0380bc70ba6bc431106ce6cd43b6ffb93b0f3d0f957e5c",
    "euler-json": "47f2303558ea6c24b3797f7e921367564ffa4062a120f6fbe3f3e99f8fabf30e",
    "euler-text": "35ca8ddd287ff259a8af5bacedd5c7e148b27ebe493e2433d1c09d08eee9c361",
    "euler-tsv": "244cb89fe348b85289102748c32b6004b48be00a5485032ec93b5579b9d80728",
    "harmonic-doublets-json": "c5ac9b3ce4074b6fb50b4f986f0677dbec469b7feabfe6019ea0b03a9d455d7f",
    "harmonic-doublets-key-json": "8324f6d1af13a6eab0e1d80ecea681cfdd58447b89783dfb06137c9eb41b592f",
    "harmonic-doublets-key-text": "c288f9f16d6beff8955cbf3ef0db627814a501e4fc12f57c823833ffa8fd5f41",
    "harmonic-doublets-key-tsv": "372f964d4588258e1e79b98b330160993b951f53424310e16b4e2c821e5a79dc",
    "harmonic-doublets-text": "bbb13fc259278096a2e10c61832b00021c731d69745f16560acc61f37ece566b",
    "harmonic-doublets-tsv": "a69f902e38261ecda541d9ed7a8e0173a1012bee80d5648faf496f903431da11",
    "harmonic-grid-json": "afa804fdce5f3c2fe6df267606b3d031c8cb10125c9702f5d14b5aa7e1cd1903",
    "harmonic-grid-text": "0b28e107b6666964898df010e1ebeb0036e61c2e1b438bf3344df85b84b7a37b",
    "harmonic-grid-tsv": "0b28e107b6666964898df010e1ebeb0036e61c2e1b438bf3344df85b84b7a37b",
    "harmonic-key-json": "dd3ebc0b21da314cca6a82dccde082a00f7d99d595398fad107db417fcf8ccb6",
    "harmonic-key-text": "fd6d6056abfabde06c1859743a8bda2f096bd84d70c32d2d38be29daf3e4906d",
    "harmonic-key-tsv": "7bd961fef3a622bf9a5d704ce3e30a8d50acff9a1de0b095368139a65cc66150",
    "metallic-cf-integer-json": "6f779f442c4c56fc1e1ae3870050076ed4a43ec0f9e4bc7e03421ba9ab8220f2",
    "metallic-cf-integer-text": "531d6de75bcc9e975ccc5c356f680244261d42c158334e9f7d2780b1504dcdca",
    "metallic-cf-integer-tsv": "845de083c5d08b7a702ccb365aed7d09f8626cdb18745e614a0798e7d6286c0f",
    "metallic-cf-json": "1829c5ccf58937c81e6e4cbff9f251357ae654310e33f6e37241939084f0d4a7",
    "metallic-cf-long-period-json": "98ba142e525422355aefef6891865c47ce4957e491440e3b1cdc47fa6574b932",
    "metallic-cf-long-period-text": "fc9ab0633a25778435dac413185b85d9663a0b8f62ccd07e85a0f015aa8874a0",
    "metallic-cf-long-period-tsv": "c32428045ba622933ae1ec8d0902788f12bfdd8847dbde9d3202cf9a428be43d",
    "metallic-cf-rational-json": "f42c7911d455c490ea0914ba5778d01043dd8d326e0ac83c05216dff145b172b",
    "metallic-cf-rational-text": "3b4fa5f103948b3f30897767fbdcb3324962f4514e6eba75dfbef804a040c858",
    "metallic-cf-rational-tsv": "09f6e73ca938c7771256213ad7017905275f2560ab56a63f66841e1030dc1c1d",
    "metallic-cf-text": "80c00a0e73fee9f1604f38e8bb8598da4c0fcb433addca73b803286b4111a09a",
    "metallic-cf-truncated-rational-json": "76078f54e6de7847c62e22c1cbc47d527ea8f7cdcfda71e3258ae844627e7378",
    "metallic-cf-truncated-rational-text": "c716bdb722ca59d63d2441cfe10d1c4f6a6ec505e31bd936aad03d96ce4cd87a",
    "metallic-cf-truncated-rational-tsv": "3e496560cdcda312e2441ab3ea53ef9ae64a3b97990b244b699c6ace2f975861",
    "metallic-cf-tsv": "d84852c52908e68aaab91f4e68a69ae37d37fa67db83e1fa4a46da426ea16ba6",
    "metallic-json": "173596736c038a740677e2cbae65abd8de0584e8c5396f0ccd9f9972db4daeac",
    "metallic-text": "f2b1d4700cf4068ef387cbf36b4f8707c036de2e4b21abaa5a028720827241ba",
    "metallic-tiny-q-json": "fe33ea044907e9c50360e2eba9ffe9112dc9534005672fa828886bf0336d20a3",
    "metallic-tiny-q-text": "0eed436baaafdc0901789dd162945ab2b72fc48a29ed6d0a7bc9ca26b5235923",
    "metallic-tiny-q-tsv": "9a8f84a73cbd7360d5f4e6947143eafa29510cecf824fbebdf9467183034a470",
    "metallic-tsv": "9eeb19a48f7d00f2e049a663342251c6d3b6996d69ab9e793bbd69585b30f7ad",
    "mmf-json": "298da74bbe3d3bfc17adecc86b25b51a91ad81253720efe10bd2779d0f8eb508",
    "mmf-text": "3c4a344f6b5044d98b3aabfb1509f595085e1a19c79a343344316bf8e5fb70cc",
    "mmf-tsv": "5682c271e5b208624679aa90b01139bad92379fd47ddbe42e9f4963f28897701",
    "solve-n2-digits-json": "b3dfe225c8d2bd4a7d273ca15f431d65245551299f1a8a75ac1b55779c866bea",
    "solve-n2-digits-text": "7a16ffebb2ca18782143cfe49cbd74702feb19a0ef440e3e9a189c078dde264d",
    "solve-n2-digits-tsv": "f090332f4e37193bd6b67ffcb472cf219116816e15cd8f5b0341401e106289e9",
    "solve-n2-json": "0c8cb142f1807c5032387b8a7de066c7b401669a844ff05f19bc48cc7971a26b",
    "solve-n2-text": "4e0d4b74c32b34a59d21eab9653e26d91f4c3f6f2b66431f0b6db85ad62a3ead",
    "solve-n2-tsv": "19665000870448e2c1bb6627480f57e232278f3b681007c4bb5b199a8e0148a2",
    "solve-n2-zero-root-json": "4ac3ac2a771622558654b39d68b520f0b0208824880ac882c99f8f5095614d72",
    "solve-n2-zero-root-text": "56e89d4d9f00f693c8e2369bfc1b4f67a5d9cf412b78a3bf02295336f9b8d657",
    "solve-n2-zero-root-tsv": "2174e770d59cd0e513683b637654887e24a2c4fc2d4c60e02e359e2610bf6f65",
    "solve-n3-json": "dd04d0e626d0601c806d65ed38162732b23c2a82da1884aa16c31a9b165906f6",
    "solve-n3-text": "8351e3a0ebd7159e11d4cebba51d5efd71b7b5f29ee12f6c197b13692d4828c5",
    "solve-n3-tsv": "a6766346b3c56d1832b7ce37b21b880a3154c3c27a080d5c000b7319d0ffea65",
    "stakhov-json": "c5106f9b95948ff306902f3917154b1881e3d3cb5345ebaf776d128db37c82f3",
    "stakhov-text": "59586fbc3bdae62bccb2ea54fa49630d9831c4b6c8870286222f7bcae409c13c",
    "stakhov-tsv": "b38a5c79e651d0f12cc910fb3e7112467c504466a592b506bf9070376df1575d",
    "table1-json": "d079dcfb2d062d674baae3f1fd75c6eac0bb317f10370f1534c47dae116a0fe1",
    "table1-right-json": "ebf5f25f2344babf10ee1f072fd82a4154c3def99f8c74fb72ce4e713629f1e0",
    "table1-right-text": "83ed81b6838a83d4d5a5f4910efe9a68ef37ac8975c1143225c627bae173190b",
    "table1-right-tsv": "de26c0699fd9d69e87464ee7666ea31c8d4bb0d602afabab3f38aeec0e316e30",
    "table1-text": "6619b2d958c1b3b6ea4dae610295fb55063c10295c8fe57c9b95ae1ecbc8f10e",
    "table1-tsv": "5b8c52c31cb5a8df14ca5adf6d3d44f8f739ecba679aa9d4c1fab2eac2f5f444",
    "usage-missing-m": "778de5e7fea50e62a540c6bba33ad5724196115ff8ec765f1412287e439f9207",
}


def _cases():
    for name, argv in COMMANDS.items():
        for fmt in FORMATS:
            yield f"{name}-{fmt}", argv + ("--format", fmt)
    yield from ERRORS.items()


CASES = dict(_cases())


def digest(code: int, out: str, err: str) -> str:
    blob = f"{code}\n{out}\x00{err}".encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys, monkeypatch):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    code = run(list(CASES[name]))
    captured = capsys.readouterr()
    assert digest(code, captured.out, captured.err) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


#: the benchmark corpora the byte-identity digest covers, (workload, seeds)
CORPORA = (("closed_form", (1, 2, 3)), ("trinomial", (1, 2, 3)), ("cold_start", (1, 2, 3)),
           ("catalog", (1,)))

#: sha256 over (argv, exit code, stdout, stderr) of every distinct corpus argv in every
#: format; a change that alters output re-pins it and says why
CORPUS_DIGEST = "4bbe0d9e36d34682168d4c32bda258059da6ccbad3030d30ec0c985f51e6ba2a"


def _without_format(argv: list[str]) -> tuple[str, ...]:
    at = argv.index("--format")
    return tuple(argv[:at] + argv[at + 2:])


def test_every_corpus_argv_prints_its_pinned_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    bases = sorted({_without_format(op["argv"]) for workload, seeds in CORPORA
                    for seed in seeds for op in corpus.generate(workload, seed)})
    blob = hashlib.sha256()
    for base in bases:
        for fmt in FORMATS:
            argv = base + ("--format", fmt)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(list(argv))
            blob.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\x00{err.getvalue()}\x00"
                        .encode())
    assert (len(bases) * len(FORMATS), blob.hexdigest()) == (18435, CORPUS_DIGEST)
