"""Golden bytes: the sha256 of stdout of a few whole CLI runs.

A change of representation (how bodies are stacked, how a cut is laid
out) must not move a printed digit.  These commands print at most
%.6f and %.2e, so their bytes do not depend on the platform's last bits.
To update a digest after a declared change of output, print
hashlib.sha256(out.encode()).hexdigest() of the run.
"""

import hashlib

import pytest

from trisect import cli

GOLDEN = {
    ("verify",):
        "6a66928f7cf0ce02ca622a03a25a55c7c9f338ce8410271fe8f7f115ac8af73f",
    ("verify", "--heps-samples", "3", "--random", "3", "--body",
     "regular:30"):
        "4cdd80b993f0bba10576d39795d8b8d7021c7e438a0f9231e95a44fcda7defaf",
    ("dm", "--format", "text", "--body", "triangle"):
        "3039c786a1179a520857ad569d7ec8934f1cb18da35979f406af6e86537dddbd",
    ("dm", "--format", "text", "--body", "hexagon"):
        "38a62627521eb145f16992b2efc8ef7d9836bfec409cdb19ee69e7c74eda006a",
    ("dm", "--format", "text", "--body", "enneagon"):
        "bece95f5a00e86def480d5bff4b2817420c17886a212811051f2e317fa0b10de",
    ("dm", "--format", "text", "--body", "dodecagon"):
        "51aa1fc7a06088c00780790ddbd43e2cf33bb21b6af42347c070c65a83476e87",
    ("dm", "--format", "text", "--body", "reuleaux"):
        "a7f09cdef52062e5d221eff290968df3155155cfb76466854cfcf63f479487f8",
    ("dm", "--format", "text", "--body", "h_tilde"):
        "4284be541245aec61397d7819cdd9be740dbb5543faf0a94977ee1a39cef74af",
}


@pytest.mark.parametrize("argv", list(GOLDEN),
                         ids=lambda argv: "_".join(a.strip("-") for a in argv))
def test_stdout_is_byte_identical_to_the_golden_run(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
