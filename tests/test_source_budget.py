"""Size ratchet for ``src/``: the ROADMAP's "small" criterion, enforced.

Every limit may only tighten: a file leaves ``OVER_600`` when it is
split, and nothing is ever added to it; ``MAX_SRC_LINES`` follows the
tree down; the reflection patterns stay out.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The files still over 600 lines.  ``cli.py`` is one table of commands
#: now (870 -> 717 lines, the ``recover`` verb added) and still over.
OVER_600 = {"cli.py", "compression/interface.py"}
MAX_CORE_FUNCTION_LINES = 90
#: ``find src -name '*.py' | xargs cat | wc -l`` (17 749 before the
#: learned block policy and the brute-force double encode went, 17 134
#: before the per-block codec rule did, 17 062 before the whole-array
#: layout fork and the four wrapper classes did, 16 850 before the
#: scheduler became the simulation clock's only writer, 16 738 before a
#: file's rANS streams decoded as one batch and interpolation passes
#: read slice views, 16 736 before simulated compute seconds stopped
#: reading the wall clock and ``work_time_scale`` went, 16 710 before
#: ``cli.py`` became one table of commands, 16 583 before the batch
#: scheduler became a queue-wait sampler and the FaaS and transfer
#: services stopped keeping per-job records, 16 385 before a streamed
#: run filled the bulk run's record through one destination step, 16 312
#: before the helper lane came in, paid for by four names nothing called
#: and by wrapping one-name-per-line ``__all__`` / import lists, 16 310
#: before the FaaS layer shrank to the batch scheduler plus a site table
#: and two package roots stopped re-exporting names nobody imported).
MAX_SRC_LINES = 15_942
#: Ways of asking an object what it is.  Every registered compressor is
#: the one ``PredictionPipelineCompressor`` class, built by
#: ``compression/registry.py``, so nothing probes for it; the last two
#: went with the learned block policy (dispatch by attribute name, and a
#: capability flag read off a collaborator that might not have it).
REFLECTION = re.compile(
    r"isinstance\([^()]*,\s*PredictionPipelineCompressor\)"
    r"|hasattr\((?:compressor|pipeline)\b"
    r"|__self__"
    r"|getattr\(getattr\("
    r"|getattr\(self\.\w+,\s*\w+\)\("
    r'|getattr\(self\.\w+,\s*"[a-z_]+",\s*False\)'
)


#: One compressor class, one writer, one reader: whole-array is the
#: one-block plan, so nothing asks a blob or a stream which layout it has
#: and a registry entry is a row, not a subclass.
LAYOUT_FORK = re.compile(
    r"is_blocked|whole_blob|_compress_whole|class \w+\(PredictionPipelineCompressor\)"
)


#: Simulated time has one owner: phases, streams, transfers and sampled
#: queue waits return durations and the job scheduler alone moves the clock
#: (``Testbed.reset_clock``'s rewind aside).
CLOCK_WRITE = re.compile(r"clock\.advance(?:_to)?\(")


#: Simulated resources have one owner too: the job scheduler's pools
#: occupy nodes and links, the batch scheduler only samples queue waits,
#: the site table only names schedulers, and the transfer service returns
#: what a call cost and keeps nothing per job (no held allocation, no task
#: status, no chunk bytes).
RESOURCE_HOLD = re.compile(
    r"busy_nodes|include_backfill|hold_allocation|release_nodes|NodeAllocation"
    r"|TransferStatus|materialize"
)


#: A FuncX site is its batch scheduler: no function registry, container
#: pool, task record or endpoint wrapper computes a cost nobody reads.
FAAS_SERVICE = re.compile(
    r"FunctionRegistry|FunctionSpec|ContainerPool|FaaSTask|FaaSExecution|FaaSEndpoint"
    r"|register_function|FunctionNotRegisteredError"
)


#: The streamed path writes the bulk run's record: one destination step
#: decodes, checks and lands every blob that crossed, and the streamed
#: result record and block-size helper it once kept are gone.
ONE_DESTINATION = ("require_error_bound(", '"/decompressed/')
GONE = re.compile(r"StreamingOutcome|spec_nbytes")


def test_no_new_file_over_600_lines():
    over = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if len(path.read_text().splitlines()) > 600
    }
    assert over <= OVER_600


def test_no_core_function_over_90_lines():
    long_functions = {}
    for path in (SRC / "core").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                length = node.end_lineno - node.lineno + 1
                if length > MAX_CORE_FUNCTION_LINES:
                    long_functions[f"{path.name}:{node.name}"] = length
    assert not long_functions


def test_src_total_stays_under_its_ratchet():
    total = sum(len(path.read_text().splitlines()) for path in SRC.parent.rglob("*.py"))
    assert total <= MAX_SRC_LINES


def test_nothing_probes_what_kind_of_compressor_it_holds():
    probes = {}
    for path in SRC.rglob("*.py"):
        name, text = path.relative_to(SRC).as_posix(), path.read_text()
        for match in REFLECTION.finditer(text):  # may span lines
            probes[f"{name}:{text.count(chr(10), 0, match.start()) + 1}"] = match.group()
    assert not probes


def test_nothing_forks_on_the_blob_layout():
    forks = {
        f"{path.relative_to(SRC).as_posix()}:{number}": line.strip()
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if LAYOUT_FORK.search(line)
    }
    assert not forks


def test_the_compression_package_swallows_nothing():
    """Every failure under ``compression/`` is typed and reaches the
    caller: no ``except Exception`` fallback is left there."""
    swallowed = [
        path.relative_to(SRC).as_posix()
        for path in (SRC / "compression").rglob("*.py")
        if "except Exception" in path.read_text()
    ]
    assert not swallowed


def test_simulated_time_reads_no_wall_clock():
    """Simulated seconds are a model: the phases and the streaming
    pipeline bill bytes at assumed throughputs and the FuncX sites sample
    their waits, never reading this host's wall time (which stays in
    ``CompressionStats``, the pipeline's stage timings and feature
    extraction, where the paper plots it)."""
    timed = {
        path.relative_to(SRC).as_posix()
        for package in ("core", "faas")
        for path in (SRC / package).rglob("*.py")
        if re.search(r"perf_counter|^import time\b|^from time import", path.read_text(), re.M)
    }
    assert not timed


def test_one_package_knows_the_block_section_format():
    """The entropy-model sections a block writes are named, and section
    containers built or parsed, only under ``compression/`` (the CLI's
    ``inspect`` asks ``compression/sz/encoding.py`` for model sizes)."""
    outside = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).parts[0] != "compression"
        and re.search(r"codes_codebook|codes_freqs|SectionContainer", path.read_text())
    }
    assert not outside


def test_only_the_scheduler_moves_the_clock():
    texts = {path.relative_to(SRC).as_posix(): path.read_text() for path in SRC.rglob("*.py")}
    assert [name for name, text in texts.items() if "advance_clock" in text] == []
    assert {name for name, text in texts.items() if CLOCK_WRITE.search(text)} == {
        "service/scheduler.py"
    }


def test_only_the_job_scheduler_occupies_nodes_and_links():
    texts = {path.relative_to(SRC).as_posix(): path.read_text() for path in SRC.rglob("*.py")}
    assert {name for name, text in texts.items() if "UnitPool(" in text} == {
        "service/scheduler.py"
    }
    held = {
        f"{name}:{text.count(chr(10), 0, match.start()) + 1}": match.group()
        for name, text in texts.items()
        for match in RESOURCE_HOLD.finditer(text)
    }
    assert not held


def test_one_destination_step_for_bulk_and_streamed_runs():
    texts = {path.name: path.read_text() for path in (SRC / "core").glob("*.py")}
    for needle in ONE_DESTINATION:
        assert sum(text.count(needle) for text in texts.values()) == 1, needle
    assert [
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if GONE.search(path.read_text())
    ] == []


def test_a_site_is_its_batch_scheduler():
    found = {
        f"{path.relative_to(SRC).as_posix()}:{number}": line.strip()
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if FAAS_SERVICE.search(line)
    }
    assert not found
