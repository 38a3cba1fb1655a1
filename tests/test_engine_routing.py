"""Guard: bulk GF(2^8) work outside ``repro.gf256`` routes via the engine.

The acceptance contract for the engine layer is architectural, not just
behavioral: no module in the codec, streaming or CPU packages may reach
around the engine and fancy-index the raw field tables directly.  This
test enforces it textually so a future hot path cannot quietly fork the
arithmetic again.  Every module in those packages is covered: the
seed-era reference decoder, which keeps the old direct-table
formulation on purpose, lives with the tests (``tests/rlnc/_reference.py``).
"""

import re
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Packages whose bulk field operations must go through the engine.
ROUTED_PACKAGES = ("rlnc", "streaming", "cpu")

#: Raw-table bulk-gather patterns: the dense product table (name it at
#: all and you are fancy-indexing it) and the classic sentinel-style
#: log/exp gathers.  Scalar lookups (e.g. ``INV[lead]``) are allowed —
#: the contract covers bulk operations, and the engine's padded tables
#: only exist inside ``repro.gf256``.
FORBIDDEN = re.compile(r"MUL_TABLE|(?<![_\w])(?:EXP|LOG)\s*\[")


def routed_modules():
    for package in ROUTED_PACKAGES:
        yield from sorted((SRC_ROOT / package).rglob("*.py"))


def test_no_direct_table_access_outside_gf256():
    offenders = []
    for path in routed_modules():
        text = path.read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if FORBIDDEN.search(line):
                offenders.append(
                    f"{path.relative_to(SRC_ROOT)}:{lineno}: {line.strip()}"
                )
    assert not offenders, (
        "bulk GF(2^8) operations must route through repro.gf256.engine; "
        "direct table access found:\n" + "\n".join(offenders)
    )


def test_decoder_inverse_scalar_comes_from_engine():
    # Pivot normalization happens inside the engine's elimination op:
    # the progressive decoder neither imports the inverse table nor
    # scales rows itself.
    decoder_text = (SRC_ROOT / "rlnc" / "decoder.py").read_text()
    assert "INV" not in decoder_text
    assert "mul_scalar" not in decoder_text


def test_decoder_row_reduction_uses_region_ops():
    # Every elimination (consume, consume_batch, a receiving cohort and
    # the quarantine rebuild) funnels through one call of the engine's
    # absorb op, which runs forward reduction and back-elimination as
    # fused region ops; the decoder keeps no row-operation body of its
    # own.
    decoder_text = (SRC_ROOT / "rlnc" / "decoder.py").read_text()
    assert decoder_text.count("ENGINE.absorb_many(") == 1
    assert "ENGINE.absorb(" not in decoder_text
    assert "ENGINE.fold_rows" not in decoder_text
    assert "ENGINE.axpy_rows" not in decoder_text


def test_recoder_emit_uses_region_ops():
    # Every emit, single rows included, is one pair of engine matmuls
    # (coefficient side, payload side) accumulating straight into the
    # preallocated outputs: the blocked matmul kernel is no slower than
    # a fold of the buffered rows even at one output row, so the
    # recoder keeps no per-count branch.
    recoder_text = (SRC_ROOT / "rlnc" / "recoder.py").read_text()
    assert recoder_text.count("ENGINE.matmul(") == 2
    assert "ENGINE.fold_rows" not in recoder_text


def test_matrix_algebra_is_one_absorb():
    # rref, rank, inverse, solve and row selection read one elimination:
    # the engine's absorb op.  matrix.py keeps no Gauss–Jordan body and
    # no table gather of its own.
    matrix_text = (SRC_ROOT / "gf256" / "matrix.py").read_text()
    assert matrix_text.count("ENGINE.absorb(") == 1
    assert "MUL_TABLE" not in matrix_text
    assert "INV" not in matrix_text


def test_two_stage_decoders_select_and_invert_in_one_call():
    # Row selection and stage 1 (the inverse) are one absorb per
    # segment, through the matrix layer's one helper.
    for module in ("rlnc/decoder.py", "kernels/decode.py"):
        text = (SRC_ROOT / module).read_text()
        assert "independent_row_indices(" not in text, module
        assert "inverse(" not in text, module
        assert text.count("select_and_invert(") == 1, module
