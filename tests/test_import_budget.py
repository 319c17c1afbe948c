"""Import budgets: each CLI step loads only the modules it runs.

Every step of a campaign is a fresh ``python -m repro`` process, so what
a step imports is a fixed cost it pays before doing any work.  These
tests run each step in a subprocess and inspect its ``sys.modules``;
nothing is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# What a step that only reads the result store must never load.
SIMULATOR = (
    "repro.sim.runner",
    "repro.sim.system",
    "repro.dram.controller",
    "repro.dram.fastctl",
    "repro.cpu.core",
    "concurrent.futures.process",
    "numpy",
)

# The execution stack: what only a step that runs a job may load.  A name
# also covers its submodules.  tests/test_import_layering.py checks the
# control modules' own imports against the same list.
EXECUTION_STACK = (
    "repro.sim.factory",
    "repro.schedulers",
    "repro.core",
    "repro.sim.pool",
    "repro.guard",
    "repro.traces",
    "repro.workloads.generator",
    "multiprocessing",
    "concurrent.futures.process",
)


def _forbidden(loaded: set[str]) -> list[str]:
    """The simulator and execution-stack modules among ``loaded``."""
    return sorted(
        name
        for name in loaded
        if name in SIMULATOR
        or any(name == top or name.startswith(top + ".") for top in EXECUTION_STACK)
    )


# Runs ``python -m repro ARGS`` in-process (as ``-m`` would) and writes
# the names in ``sys.modules`` at exit to the file named first.
_CLI_PROBE = """
import json, runpy, sys
out, args = sys.argv[1], json.loads(sys.argv[2])
sys.argv = ["repro", *args]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code not in (0, None):
        raise
with open(out, "w") as fh:
    json.dump(sorted(sys.modules), fh)
"""

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)


def _env(tmp_path: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_CAMPAIGN_DB"] = str(tmp_path / "store.sqlite")
    return env


def _loaded_by_cli(tmp_path: Path, *args: str) -> set[str]:
    out = tmp_path / "modules.json"
    subprocess.run(
        [sys.executable, "-c", _CLI_PROBE, str(out), json.dumps(args)],
        env=_env(tmp_path),
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )
    return set(json.loads(out.read_text()))


def _loaded_by_code(tmp_path: Path, code: str) -> set[str]:
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(tmp_path),
        cwd=tmp_path,
        check=True,
        capture_output=True,
        text=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


# -- the package and the light subcommands ------------------------------------
@pytest.mark.parametrize(
    "load",
    [
        lambda tmp: _loaded_by_code(tmp, "import repro"),
        lambda tmp: _loaded_by_cli(tmp, "list"),
        lambda tmp: _loaded_by_cli(tmp, "--help"),
    ],
    ids=["import-repro", "list", "help"],
)
def test_light_entry_points_load_no_simulator(tmp_path, load):
    loaded = load(tmp_path)
    assert "repro" in loaded
    assert not loaded & {"repro.sim.system", "repro.dram.controller", "numpy"}


# -- the campaign read path ----------------------------------------------------
@pytest.fixture(scope="module")
def finished_campaign(tmp_path_factory):
    """A finished 1000-instruction campaign: (directory, spec path)."""
    root = tmp_path_factory.mktemp("finished")
    spec = root / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "name": "budget",
                "schedulers": ["FR-FCFS", "PAR-BS"],
                "num_cores": [4],
                "mix_count": 0,
                "mixes": [["mcf", "libquantum", "omnetpp", "hmmer"]],
                "instructions": 1000,
            }
        )
    )
    subprocess.run(
        [sys.executable, "-m", "repro", "--backend", "fast", "campaign", "run", str(spec)],
        env=_env(root),
        cwd=root,
        check=True,
        capture_output=True,
    )
    return root, spec


@pytest.mark.parametrize(
    "action",
    [
        ("report",),
        ("export",),
        ("export", "--format", "json"),
        ("status",),
        ("watch", "--once"),
    ],
    ids=lambda action: "-".join(action),
)
def test_campaign_read_steps_load_no_simulator(finished_campaign, action):
    root, spec = finished_campaign
    loaded = _loaded_by_cli(root, "campaign", action[0], str(spec), *action[1:])
    assert "repro.campaign.store" in loaded
    assert _forbidden(loaded) == []


@pytest.mark.parametrize(
    "flags, fresh_store",
    [
        (("--limit", "0"), True),
        (("--dry-run",), True),
        ((), False),
    ],
    ids=["limit-0", "dry-run", "nothing-pending"],
)
def test_campaign_run_without_jobs_loads_no_execution_stack(
    finished_campaign, tmp_path, flags, fresh_store
):
    """The set-up probe, a dry run and a resume that finds every job
    stored import the campaign layer only."""
    root, spec = finished_campaign
    where = tmp_path if fresh_store else root
    loaded = _loaded_by_cli(
        where, "--backend", "fast", "--jobs", "2", "campaign", "run", str(spec), *flags
    )
    assert "repro.campaign.spec" in loaded
    assert _forbidden(loaded) == []


# -- steps that run jobs --------------------------------------------------------
def test_serial_campaign_run_loads_no_process_pool(finished_campaign, tmp_path):
    """A ``--jobs 1`` run simulates in this process and starts no pool."""
    _, spec = finished_campaign
    loaded = _loaded_by_cli(
        tmp_path, "--backend", "fast", "--jobs", "1", "campaign", "run", str(spec)
    )
    assert "repro.sim.system" in loaded
    assert "concurrent.futures.process" not in loaded


# Native code a step that runs jobs does not map.  ``hashlib`` maps
# OpenSSL's libcrypto (about 3.6 MB resident); content keys hash with the
# interpreter's own SHA-256, and only hashing a trace file imports it.
OPENSSL = ("hashlib", "_hashlib")

# What a step that simulates in its own process does not load: the pool's
# ``multiprocessing`` (and with it ``socket``), ``uuid`` (``_uuid`` and
# ``platform``) and ``difflib``, which only an unknown mix name needs.
IN_PROCESS_UNUSED = ("multiprocessing", "uuid", "_uuid", "difflib")


@pytest.mark.parametrize(
    "args, in_process",
    [
        (("--jobs", "1", "campaign", "run"), True),
        (("--jobs", "2", "campaign", "run"), False),
        (("campaign", "work"), True),
    ],
    ids=["run-jobs-1", "run-jobs-2", "work"],
)
def test_job_running_steps_map_no_openssl(
    finished_campaign, tmp_path, args, in_process
):
    """A step that runs jobs on a fresh store loads no ``hashlib``; one
    that simulates in its own process loads none of ``multiprocessing``,
    ``uuid`` or ``difflib`` either."""
    _, spec = finished_campaign
    loaded = _loaded_by_cli(tmp_path, "--backend", "fast", *args, str(spec))
    assert "repro.sim.system" in loaded
    assert sorted(loaded & set(OPENSSL)) == []
    if in_process:
        assert sorted(loaded & set(IN_PROCESS_UNUSED)) == []
    else:
        assert "multiprocessing" in loaded


_RUN_MANY = (
    "from repro.config import baseline_system\n"
    "from repro.sim.runner import ExperimentRunner\n"
    "runner = ExperimentRunner(baseline_system(4), instructions=1000,\n"
    "                          backend='fast', cache_dir=None, jobs={jobs})\n"
    "runner.run_many([(['mcf', 'libquantum', 'omnetpp', 'hmmer'], name, dict())\n"
    "                 for name in ('FR-FCFS', 'PAR-BS')])"
)


def test_serial_run_many_loads_no_process_pool(tmp_path):
    loaded = _loaded_by_code(tmp_path, _RUN_MANY.format(jobs=1))
    assert "repro.sim.system" in loaded
    assert "concurrent.futures.process" not in loaded


def test_pooled_run_many_parent_loads_no_sqlite(tmp_path):
    """The direct path opens no result store, so its parent loads no
    SQLite."""
    loaded = _loaded_by_code(tmp_path, _RUN_MANY.format(jobs=2))
    assert "concurrent.futures.process" in loaded
    assert "sqlite3" not in loaded


def test_preload_imports_every_scheduler(tmp_path):
    """Forked pool workers inherit the schedulers instead of importing
    them on their first job."""
    loaded = _loaded_by_code(
        tmp_path, "from repro.sim.pool import preload_simulator\npreload_simulator('fast')"
    )
    schedulers = {
        "repro.schedulers.fcfs",
        "repro.schedulers.frfcfs",
        "repro.schedulers.nfq",
        "repro.schedulers.stfm",
        "repro.core.parbs",
    }
    assert schedulers <= loaded
    assert "repro.dram.fastctl" in loaded


def test_fast_backend_never_loads_numpy(tmp_path):
    loaded = _loaded_by_code(
        tmp_path,
        "from repro.config import baseline_system\n"
        "from repro.sim.runner import ExperimentRunner\n"
        "runner = ExperimentRunner(baseline_system(4), instructions=1000,\n"
        "                          backend='fast', cache_dir=None, jobs=1)\n"
        "runner.run_workload(['mcf', 'libquantum', 'omnetpp', 'hmmer'], 'PAR-BS')",
    )
    assert "repro.dram.fastctl" in loaded
    assert "numpy" not in loaded


# -- lazy re-exports -----------------------------------------------------------
@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(tmp_path, package):
    """In a fresh process, so each name goes through the package's lazy
    ``__getattr__`` rather than an attribute an earlier test cached."""
    code = (
        "import importlib, json\n"
        f"module = importlib.import_module({package!r})\n"
        "listed = dir(module)\n"
        "print(json.dumps([[n, hasattr(module, n), n in listed] for n in module.__all__]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(tmp_path),
        check=True,
        capture_output=True,
        text=True,
    )
    names = json.loads(proc.stdout)
    assert names
    assert [n for n, resolves, _ in names if not resolves] == []
    assert [n for n, _, is_listed in names if not is_listed] == []


def test_unknown_package_attribute_raises_attribute_error():
    import repro.sim

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.sim.no_such_name  # noqa: B018


def test_case_study_choices_match_the_experiments():
    from repro.__main__ import _CASE_ALIASES, _build_parser
    from repro.experiments.case_studies import CASE_STUDIES

    commands = next(
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    name = next(
        action
        for action in commands.choices["case-study"]._actions
        if action.dest == "name"
    )
    assert list(name.choices) == sorted(_CASE_ALIASES) + sorted(CASE_STUDIES)
