"""Every write point survives a crash.

A five-phase ``small_config`` run writes each file through one ``os.replace``
(:func:`fileio.atomic_write`). For every phase and every k, the phase runs in
a forked child that exits hard at its k-th ``os.replace``, after the
temporary file is written and before it is renamed, from the state that the
phases before it left. Then:

1. no named output file is partial: every file under ``out/`` holds the bytes
   that an unkilled run gives it, and the one other file is the temporary
   file of the killed write, holding that write's whole content;
2. each later phase, in pipeline order, either exits 3 naming what is
   missing and changes nothing (the later ones then are not run), or exits 0
   and writes the bytes of an unkilled run, because every input it reads is
   whole;
3. a rerun of the killed phase leaves the tree of an unkilled run, with no
   stray temporary file anywhere under ``out/``.
"""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path

import pytest

from fedmetaloc import cli, experiments

from helpers import small_config, tree_digest

PHASES = ("preprocess", "meta-train", "meta-test", "theory-probe", "report")
# os.replace calls of each phase on small_config: 3 bundles of 3 files; the round log
# and the final checkpoint; 4 runs of 2 files plus the report's 2 CDFs and metrics.json
WRITES = {"preprocess": 9, "meta-train": 2, "meta-test": 11, "theory-probe": 1, "report": 3}
COMMANDS = {
    "preprocess": experiments.cmd_preprocess,
    "meta-train": experiments.cmd_meta_train,
    "meta-test": experiments.cmd_meta_test,
    "theory-probe": experiments.cmd_theory_probe,
    "report": experiments.cmd_report,
}
OWN_DIRS = {  # the directories each phase writes
    "preprocess": ("tasks",),
    "meta-train": ("train",),
    "meta-test": ("test", "report"),
    "theory-probe": ("theory",),
    "report": ("report",),
}
TMP = re.compile(r"\.(?P<name>.+)\.[0-9a-f]{12}\.tmp")
MISSING = ("run preprocess first", "checkpoint not found", "missing trace", "missing file")
KILLED = 137

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork"),
    pytest.mark.filterwarnings("ignore::RuntimeWarning"),
]


def in_dirs(digest: dict[str, str], dirs) -> dict[str, str]:
    return {key: value for key, value in digest.items() if key.split(os.sep)[0] in dirs}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """An unkilled run: each phase's ``os.replace`` count, and a copy of the
    experiment directory after each phase with its files' digests."""
    root = tmp_path_factory.mktemp("pipeline")
    config = experiments.load_experiment_config(small_config(root))
    counts, after = {}, {}
    replace = os.replace
    for phase in PHASES:
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "replace", lambda src, dst: (calls.append(dst), replace(src, dst)))
            COMMANDS[phase](config)
        counts[phase] = len(calls)
        after[phase] = root / "after" / phase
        shutil.copytree(config.experiment_dir, after[phase])
    return counts, after, {phase: tree_digest(directory) for phase, directory in after.items()}


def killed_at(k: int, phase: str, config: experiments.ExperimentConfig) -> int:
    """The exit code of ``phase`` run in a forked child that exits with
    ``KILLED`` at its k-th ``os.replace``, before the rename."""
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        code = 1
        try:
            calls = 0

            def replace_or_die(src, dst, _replace=os.replace):
                nonlocal calls
                calls += 1
                if calls == k:
                    os._exit(KILLED)
                _replace(src, dst)

            os.replace = replace_or_die
            COMMANDS[phase](config)
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def test_an_unkilled_run_makes_the_counted_writes(pipeline):
    assert pipeline[0] == WRITES


@pytest.mark.parametrize(
    "phase, k", [(phase, k) for phase in PHASES for k in range(1, WRITES[phase] + 1)], ids=lambda v: str(v)
)
def test_a_kill_at_each_write_point(tmp_path, capsys, pipeline, phase, k):
    _, after, reference = pipeline
    path = small_config(tmp_path)
    config = experiments.load_experiment_config(path)
    earlier = PHASES[: PHASES.index(phase)]
    if earlier:
        shutil.copytree(after[earlier[-1]], config.experiment_dir)

    assert killed_at(k, phase, config) == KILLED

    # 1. every named file is whole; the one temporary file holds its write's whole content
    left = tree_digest(config.experiment_dir)
    stray = [key for key in left if TMP.fullmatch(Path(key).name)]
    assert len(stray) == 1, stray
    (tmp,) = stray
    target = str(Path(tmp).with_name(TMP.fullmatch(Path(tmp).name)["name"]))
    assert left.pop(tmp) == reference[phase][target]
    assert all(reference[phase].get(key) == value for key, value in left.items())

    # 2. each later phase refuses the partial state, or runs on whole inputs as an unkilled run does;
    # it runs on a copy, the same experiment under a config whose out_dir is elsewhere
    (tmp_path / "later").mkdir()
    later_path = small_config(tmp_path / "later")
    later_dir = experiments.load_experiment_config(later_path).experiment_dir
    shutil.copytree(config.experiment_dir, later_dir)
    for later in PHASES[PHASES.index(phase) + 1 :]:
        before = tree_digest(later_dir)
        capsys.readouterr()
        code = cli.run([later, "--config", str(later_path)])
        err = capsys.readouterr().err
        if code == 3:
            assert err.startswith("data error:") and any(text in err for text in MISSING), err
            assert tree_digest(later_dir) == before
            break
        assert code == 0, err
        own = OWN_DIRS[later]
        assert in_dirs(tree_digest(later_dir), own) == in_dirs(reference[later], own)

    # 3. a rerun leaves the bytes of an unkilled run and no temporary file
    capsys.readouterr()
    assert cli.run([phase, "--config", str(path)]) == 0, capsys.readouterr().err
    assert tree_digest(config.experiment_dir) == reference[phase]
    assert not list((tmp_path / "out").rglob("*.tmp"))
