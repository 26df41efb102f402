"""Golden sha256 hashes of every CSV, for runs the benchmark never makes.

The benchmark pins the six built-ins at seed 0. These pin them at seed 1,
and add a noisy scenario whose four subgroups do not divide its 1003 loads:
no benchmark workload draws noise, and only ``subgroups`` has subgroups
(four, dividing its 1000 loads). A third scenario has more subgroups (12)
than loads (7), so the drawn subgroups are not 0..K-1. A fourth draws R,
P, eta and the set-point with nonzero widths, so every parameter differs
from load to load: no built-in does that. Every output is emitted, steps
included.
A change that moves one byte of any of these files changes behaviour.
"""

import hashlib
import json

import pytest

from tclmarket.cli import BUILTIN_SCENARIOS, main

EMIT = "trace,metrics,bids,steps"
CSV_FILES = ("trace.csv", "metrics.csv", "windows.csv", "bids_sample.csv", "steps.csv")

NOISY_SUBGROUPS = {
    "population": {"count": 1003, "noise_std": 0.02, "subgroups": 4},
    "horizon_min": 60,
    "feeder_fraction": 0.6,
    "price_signal": {"kind": "square", "low": 22, "high": 23.5, "period_min": 20},
}

SPARSE_SUBGROUPS = {
    "population": {"count": 7, "subgroups": 12, "noise_std": 0.01},
    "horizon_min": 60,
    "feeder_fraction": 0.6,
}

SPREAD_PARAMETERS = {
    "population": {
        "count": 999, "r_rel_width": 0.1, "p_rel_width": 0.05, "eta_rel_width": 0.08,
        "theta_set_width": 0.5,
    },
    "horizon_min": 120,
    "feeder_fraction": 0.6,
    "price_signal": {"kind": "step", "schedule": [[0, 42], [40, 20], [80, 9]]},
}

GOLDEN = {
    "fluctuating": {
        "trace.csv": "ca901bbcb7422086a5e45e48c3fc01267add6bc02356e0fa78fec689194a13b5",
        "metrics.csv": "8d8fa4a651f000b8ae34b009f4ab82f433374ccf0452964caf692b1ad61ceac2",
        "windows.csv": "e8d5591f52f5e1a3a284817d3a92103e69c8ba09e9f822eaa28db6dccb1420e0",
        "bids_sample.csv": "25dda420f4f257dbb70e8e3a32287cf25d852e59a20e9c4b142fafad30b44c69",
        "steps.csv": "9c6ccc23aef43e53526fa3144f9d4a7320d6dbb42ffe26642c268107072b0ae3",
    },
    "natural": {
        "trace.csv": "d65e804061826d5e3c812676a823ac33df6fdf784f0f55982b13ef779d1b05df",
        "metrics.csv": "383952226dcf24def3e62ba185bc24a64afad997447d0f159b6ab9c2df84ae98",
        "windows.csv": "7a06376ec24ce7dc52a966e69f10f847afcbddf2862d55dc017c2e587956ef11",
        "bids_sample.csv": "a37be67683bfcd0ccb6c6e72145e1d33df9c91081d0c9655b2f704c8d6081ffb",
        "steps.csv": "f6f63ecfe5e9d9f5b5def1436cac0896b02b4b8de3d59f2ec9f7c8334e5b096f",
    },
    "pulsetrain": {
        "trace.csv": "cd1ec454ee8c2b39ab07d8855fd7f28a27448852036808ef8eb2c5f8ded94705",
        "metrics.csv": "e1e30535560d427de5cf0c52bd3d9a055595f149be34846df9aec6785a7db62b",
        "windows.csv": "bd6ecea60639ffe81b19fbbe0a23041cc4665d58231d5c50b12b12c3e429095f",
        "bids_sample.csv": "5983ae0861f009f09027936122e86ac3807afb78c4ea3cc99438d310185e7fd9",
        "steps.csv": "7a9c239154ed18e50ee34d9b9a06664dc7a3bb87a5abe802f72e7d73e923037b",
    },
    "stepprice": {
        "trace.csv": "f955b9a1863e6738ea2774213cea6e4b6b37b8f56096c36003dd4a6444b78b39",
        "metrics.csv": "50507ee65c43cb50020115974f13556972714ae4867d00fde6f98dcc9d4be61c",
        "windows.csv": "9f91213f4bd8b57498625968ec6ad5ef54dafa967f4fb3ac7b7530dd1e1d8739",
        "bids_sample.csv": "f48f6dbbc3fdd8665dee7b5dcad2696b5a7ed8a6eb00f160ca64bc6027dcd949",
        "steps.csv": "975b74f9ca4dea1c280a95ecdf0129087f0dd935a0c28a7953f8a47c0be52caf",
    },
    "stepprice-hetset": {
        "trace.csv": "35ace22acc4b7bb579614b7866147deee254cc2ff490972cae55d090af8ffbb0",
        "metrics.csv": "3bb7721abb8dcc77995b174409c322ceb50afdd2fee74d4562e5f99088af2a2c",
        "windows.csv": "2e333d48a8dd6de7c5839a4d6944fa1cfcf02bd1273d2847e61cf21b3913a7dc",
        "bids_sample.csv": "1658deef67df30eed7a97832fefdca829bebbe1f3e2c901830bae534863f4f14",
        "steps.csv": "4cf87671571e3a401e8fe3efcb4debcb03e9b6d9b4863b5103493f85f9297042",
    },
    "subgroups": {
        "trace.csv": "0d7f58cca504619f14a80d636e79e66e91f07b7d5c12df2242b223f5b312c601",
        "metrics.csv": "96ba972574dde78e6ccb9a52a9bcd9da9e2af5667353035fe84ea3d602361774",
        "windows.csv": "601f85e7d1cb79dd254b25b16ea6056df5bde548e25e1d6c33f9b68a09d2c072",
        "bids_sample.csv": "5b7c2b024c35b891990863356372aefb20de349d73bf24c6943322a3116286d6",
        "steps.csv": "9a2da7ee2f8cdbdee7e3e7bb3c0f2e4515466f4f4f92b173d14fa46a28ce2cf0",
    },
    "noisy-subgroups": {
        "trace.csv": "33b7cb96f7e5474f229b74c601ac468e3190cfce9f2f93f6e2e75cd9d1655a96",
        "metrics.csv": "e2861640b2b6281315ffc7038f6d8cb3b931173f4af3bc3e0a467c856dbe5b08",
        "windows.csv": "a7796266f6214f3c104f4e797a8b633e33d13e9f3a174f9992506a05544b1de9",
        "bids_sample.csv": "b05955eacf63dd923981dc9271eb3e5bbd22b5255252cdd458b611a59e583b67",
        "steps.csv": "2b1bd71dccf1da7602832425ad4ad1708672577050b6ce95d6f3f409c5095500",
    },
    "sparse-subgroups": {
        "trace.csv": "0f51d09ac2ad344864d060f73c4d1733f75bf238049bd871c70cafbf2ef73b62",
        "metrics.csv": "e1a72e3df4ede04155931e25e675cfe9ecedae299872095f20cce1a4ef9fc887",
        "windows.csv": "a7796266f6214f3c104f4e797a8b633e33d13e9f3a174f9992506a05544b1de9",
        "bids_sample.csv": "4e798c09be3a964491257529f28c0792aae786eda24405f1988a36b929140489",
        "steps.csv": "9fa5a5dc3d1fc3d399efeeb0df36157fea5e67f4cb89ab7a01b12837bafe73dc",
    },
    "spread-parameters": {
        "trace.csv": "caa26cefe7a81ba0e1f97e36ab813014f3a849847b447d824fcb53d539ac9b40",
        "metrics.csv": "129bc79957bb9309fe6c78e85601d4b9d5ccf1cd4fa0be01171db910effcfadf",
        "windows.csv": "b903783a09a9381b3601177d9b78c684fd06d7b33bdabf1179c1e95fa106907b",
        "bids_sample.csv": "434cf2883770cb60d02d0e3601a9b2474bde389a37f130e4e5c37e12a734021d",
        "steps.csv": "325a393e673c1435bdd971870818fa727a3c47959446a0884e496f984eda7fc4",
    },
}


def csv_hashes(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in CSV_FILES
    }


def test_golden_covers_every_builtin():
    assert set(GOLDEN) == set(BUILTIN_SCENARIOS) | {
        "noisy-subgroups", "sparse-subgroups", "spread-parameters"
    }


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_csvs_at_seed_1_match_their_hashes(name, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--scenario", name, "--seed", "1", "--emit", EMIT, "--out", str(out)]) == 0
    assert csv_hashes(out) == GOLDEN[name]


def custom_csv_hashes(scenario, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--emit", EMIT, "--out", str(out)]) == 0
    return csv_hashes(out)


def test_noisy_uneven_subgroups_csvs_match_their_hashes(tmp_path, capsys):
    assert custom_csv_hashes(NOISY_SUBGROUPS, tmp_path) == GOLDEN["noisy-subgroups"]


def test_more_subgroups_than_loads_csvs_match_their_hashes(tmp_path, capsys):
    assert custom_csv_hashes(SPARSE_SUBGROUPS, tmp_path) == GOLDEN["sparse-subgroups"]


def test_spread_parameters_csvs_match_their_hashes(tmp_path, capsys):
    assert custom_csv_hashes(SPREAD_PARAMETERS, tmp_path) == GOLDEN["spread-parameters"]
