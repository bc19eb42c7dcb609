"""Hypothesis strategy for malformed copies of a valid file."""

from hypothesis import strategies as st


@st.composite
def edited(draw, raw):
    """`raw` after one to three edits: a flipped bit, an inserted byte or a
    deleted byte, each at a drawn position."""
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "insert", "delete")))
        at = draw(st.integers(0, len(out) - 1))
        if kind == "flip":
            out[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "insert":
            out.insert(at, draw(st.integers(0, 255)))
        else:
            del out[at]
    return bytes(out)
