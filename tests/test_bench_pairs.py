"""scripts/bench_pairs.py: the summary of canned result lines."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.02},
]


def result(wall, ok_frac, correct="true", attempted=270, failed=9):
    """A run's result line, as fermibench/run.py prints it, parsed."""
    return json.loads(
        f'{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": '
        f'{{"wall_s": {{"value": {wall}, "unit": "s"}}, "ok_frac": {{"value": {ok_frac}, "unit": "ratio"}}}}}}'
    )


def test_medians_quartiles_wins_and_bounds():
    walls = [(1.0, 0.9), (1.2, 1.3), (1.1, 1.0), (1.3, 1.2), (1.0, 1.6)]
    pairs = [(result(p, 0.967), result(c, 0.9)) for p, c in walls]
    lines, ok = bench_pairs.summarize(pairs, END_TO_END)
    assert ok
    header, wall, ok_frac = lines
    assert header.startswith("metric,unit,parent_median")
    # parent 1.0 1.0 1.1 1.2 1.3, change 0.9 1.0 1.2 1.3 1.6; the change
    # won pairs 0, 2 and 3, and its median is 1.2/1.1 - 1 = 9 % worse
    assert wall == "wall_s,s,1.1,1,1.2,1.2,1,1.3,3/5,0.25,yes"
    # 0.9 is 6.9 % below 0.967, past the 2 % bound; no pair won
    assert ok_frac == "ok_frac,ratio,0.967,0.967,0.967,0.9,0.9,0.9,0/5,0.02,NO"


def test_incorrect_run_and_differing_counts_fail():
    pairs = [
        (result(1.0, 1.0), result(1.0, 1.0, correct="false")),
        (result(1.0, 1.0), result(1.0, 0.9, failed=10)),
    ]
    lines, ok = bench_pairs.summarize(pairs, END_TO_END)
    assert not ok
    assert lines[:2] == ["pair 0: change reports correct: false", "pair 1: attempted/failed 270/9 vs 270/10"]
