"""Table 3: alone-run characterization of all 28 benchmarks.

Regenerates the paper's benchmark-characterization table from the
calibrated synthetic traces.  Expected shape: MPKI tracks the published
values closely; row-buffer hit rates and BLP match their targets within
the calibration tolerance; AST/req separates low-MLP (high AST) from
high-MLP (low AST) benchmarks.
"""

from conftest import run_once

from repro.experiments.characterization import run_characterization


def test_table3_characterization(benchmark, runner4):
    result = run_once(benchmark, lambda: run_characterization(runner=runner4))
    print()
    print(result.report())

    measured = {p.name: stats for p, stats, _ in result.rows}
    # The BLP dichotomy must be preserved: the highest-BLP benchmark (mcf)
    # measures well above the lowest (gromacs/matlab).
    assert measured["mcf"].blp > 2.5 * measured["gromacs"].blp
    # Row-locality dichotomy: libquantum streams, GemsFDTD does not.
    assert measured["libquantum"].row_hit_rate > 0.85
    assert measured["GemsFDTD"].row_hit_rate < 0.45
    # Intensity ordering: matlab is the most intensive benchmark.
    assert measured["matlab"].mcpi == max(s.mcpi for s in measured.values())
