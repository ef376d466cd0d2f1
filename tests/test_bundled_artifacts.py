"""Artifact-identity guard for the bundled scenarios: every file that
`htlcrace run` writes for each `scenarios/*.ini`, summary.txt included, is
pinned by sha256, so a refactor of the scenario reader, the runners or the
engine cannot change a byte of them without failing here.

The sweep and the matrix run with two forked workers: that keeps the test
short and checks the promise that `--jobs` does not change the output (the
digests were recorded from serial runs).
"""

import hashlib
from pathlib import Path

import pytest

from htlcrace.cli import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
JOBS = {"sweep_break_even": 2, "mitigation_matrix": 2}

DIGESTS = {
    ("attack_n100", "report.csv"): "aaac029a48b2fbdd112960002e0a768b41c0fcc02d08c21b936dccf6bf0fa63f",
    ("attack_n100", "summary.txt"): "13efe7264d6426aa745f4d2c41c83971739d251d2c92cb80e0a68e4f0e0fe92c",
    ("attack_n100", "trace.csv"): "cac43828fecac5bbe91ff060eda9db764ab0eed8b4adf345b1d60a8567f60bc9",
    ("fee_analysis", "report.csv"): "2bb51c6cba9143281dff171fc90e0cb716faed9a8af0f28bda8aa23739f0710a",
    ("fee_analysis", "space.csv"): "8f3eeb44807fd14f645f0a6c2a61e5735d03cb416e82001e9811bd141985aaa7",
    ("fee_analysis", "space_minimized.csv"): "fa896fd4fae1da0c72704c9834c44d5ec60878aa87dc83263c29cb8b92b02e72",
    ("fee_analysis", "summary.txt"): "1260460ce4a000639ba6b73d253d5689a4309a1586643e68bc6c728f9ecd09f3",
    ("fee_analysis", "trace.csv"): "234ccdfa14714682dce7aa374376496c57cc5b603be2e061d7d62eb2fb62373d",
    ("mitigation_matrix", "report.csv"): "5f4e233441aabce9a69f2d0d3c253358a6a076800c15ec80f4d94f0baad77b32",
    ("mitigation_matrix", "summary.txt"): "7d40c2bd5e7dfb2a2f7e7efa74fe2aa3c21c9d760cc2696aefb3120a148c3c40",
    ("mitigation_matrix", "trace.csv"): "619f13d14852c1a575549b708d5288b314bdd50a314a8a43842a928981e99353",
    ("sweep_break_even", "report.csv"): "4d7e33ff9bf0cc5fe19a5d6d44f14cc5795792fe452688e549ff9fee9e39f159",
    ("sweep_break_even", "summary.txt"): "57e8ff59b367a82b20799ff4a2ab31cc137817b5f25328d1d59eeb1fce646014",
    ("sweep_break_even", "trace.csv"): "df45272e544e0c1ef52bdddfa57dc449f88dca79281a1b728c07c5e6b425c420",
}


@pytest.mark.parametrize("stem", sorted({stem for stem, _ in DIGESTS}))
def test_bundled_scenario_artifacts(tmp_path, stem):
    out = tmp_path / stem
    assert run_scenario(SCENARIO_DIR / f"{stem}.ini", out, jobs=JOBS.get(stem, 1)) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert written == {name: digest for (s, name), digest in DIGESTS.items() if s == stem}
