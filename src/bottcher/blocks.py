"""Empty on purpose.

The pure-logarithm blocks B_m are z-order-0 `TransSeries`: `series` and
`compose` do their arithmetic, and the normalizer never tests a block's
class, because `compose.shape_of` already rejects an alpha block with a
lex-negative key as a leading term with logarithms.  Their membership tests,
the metric d_m and the derivation D_m live with the paper's other operators
in `tests/crosschecks.py`.  The module stays only because the benchmark's
tracer (`bench/tracer.py`) looks `bottcher.blocks` up by name; it goes with
the next change to the benchmark.
"""
