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
#: and two package roots stopped re-exporting names nobody imported,
#: 15 942 before long entropy-coded streams were stored split and a
#: file's rANS streams encoded as one batch, paid for by the per-stream
#: encode loop, ``speedup_vs_direct``, the pipeline's own backend lookup
#: and by wrapping one-name-per-line ``__all__`` / import lists, 15 933
#: before Huffman's model became arrays, 15 932 before rANS took its lanes
#: from the file's plan and its tables became gaps, paid for by deleting
#: ``RansCodec.encode``, ``RansFrequencyTable.from_frequencies`` and the
#: quantiser's unused symbol mapping, 15 927 before blobs became container
#: version 3 — a binary header, checksums, dense Huffman books — paid for
#: by deleting the LZ77 codec and the JSON header writer, 15 769 before
#: the gateway's event bus became one counter and one condition and the
#: names only tests called went, 15 412 before the transfer service became
#: the one WAN model and the sentinel's own engine approximation and
#: file copy went, 15 320 before block dedup and the cache's block tier,
#: which no workload's data ever triggered, went, 15 065 before the
#: options only tests set went: the random forest, WAN jitter and its
#: seed, target-bytes grouping, the cost-model and sample-fraction
#: plumbing, 14 826 before tenant quotas, the admission queue, HTTP 429
#: and fair-queue weights went, 14 542 before the stage-timing fork left
#: the block encode, the transfer service kept one GridFTP engine and the
#: decision tree's feature bagging went, 14 448 before the stream shipped
#: the blocks of the bulk encode, the sampled shared model went and so did
#: four options only tests set, 14 386 before the entropy coders' escape
#: protocol went — a model always covers the stream it codes — and so did
#: the names only tests called: the quality predictor's and the decision
#: tree's save / load / importances, ``ml/model_io.py``, the compressors'
#: ``describe``, ``JobStore.compact`` and ``BlobCache.entry_count``, 14 156
#: before strict priority classes, the bound-check option and the gateway
#: driver's poll keyword went, and the predictors, datasets and plans
#: stopped describing themselves, 14 056 before Huffman's encode kept one
#: dense table and summed each chunk with one ``np.bincount``, 14 043
#: before HTTP and job stepping moved onto one ``selectors`` loop).
MAX_SRC_LINES = 14_042
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


#: A plan's blocks are the blocks that get encoded: no block is digested
#: to find a copy of another, and the cache keeps whole blobs only.
#: Aliases that older builds wrote are still read.
DEDUP = re.compile(
    r"group_identical_blocks|expand_aliases|block_cache|get_block|put_block|last_dedup_stats"
)


#: A file's rANS streams encode as one lockstep batch, as they decode: the
#: batch's loop is ``rans.py``'s one walk over rounds in reverse (a lone
#: stream is a batch of one), and the block stages code no stream alone.
RANS_ENCODE = SRC / "compression" / "encoders" / "rans.py"
ONE_STREAM_ENCODE = "encode_with_table("


#: Huffman's model is arrays: code lengths come from one merge scan over
#: plain ints plus pointer jumping, never from a heap or a queue of
#: per-symbol groups.
HUFFMAN_MODEL = ("huffman.py", "huffman_decode.py")
QUEUES = {"deque", "heapq"}

#: Huffman's <= 16-bit encode is one gather and one sum: the codebook
#: keeps one dense encode table, and the pair writer sums each chunk's
#: windows with one ``np.bincount`` (the byte writer it replaced took
#: three, over two tables).
HUFFMAN = SRC / "compression" / "encoders" / "huffman.py"
PAIR_WRITER = "_pack_codes_16"


#: The gateway's one event buffer is each job's own feed: the bus is a
#: counter and a condition, so no per-subscriber queue or subscription
#: object comes back.
GATEWAY = SRC / "gateway"
#: One gateway thread: a ``selectors`` loop serves every socket and steps
#: the scheduler, so no server spawns a thread per request and the driver
#: starts the one thread the loop runs on.  ``gateway/`` was 956 lines
#: before HTTP and stepping moved onto it, and does not grow.
THREAD_PER_REQUEST = "ThreadingHTTPServer"
ONE_THREAD = "threading.Thread("
MAX_GATEWAY_LINES = 955


#: One WAN model: the transfer service prices every route (``estimate``,
#: which ``submit``, a stream's channels and a report's
#: ``direct_transfer_s`` share) and is the one thing that moves files
#: between endpoints, the sentinel's raw prefix included.
ENGINE = "GridFTPEngine("
MOVE = ".copy_from("


#: An option no caller but a test sets is not kept: the predictor is the
#: decision tree (never saved, so no file names a model kind), a WAN
#: estimate is deterministic and priced on a registered link, grouping is by world size, and the cluster model and
#: the sentinel's threshold are constants.  No caller outside the tests set
#: a tenant quota, so the admission queue never parked a job, HTTP 429
#: never fired and every fair-queue weight was 1: tenants share the
#: scheduler equally and nothing is refused or parked for a quota.  Job
#: ids are ``job-NNNN`` and the feature sample's block is a constant.  Every
#: route and stream is priced with the transfer service's one engine, and
#: a tree considers every feature at every split.  A recommendation asks
#: for a PSNR only, a train/test split is by file, a clock reset wipes the
#: staged files, a recovered job's dataset comes from its recipe, and a
#: shared model pools every block (no block sample to size).  No caller
#: outside the tests set a priority class, so there is one; no workload
#: asked for the bound check, so every reconstruction is checked; the
#: gateway driver's idle wait is a constant.
TEST_ONLY_OPTIONS = re.compile(
    r"RandomForestRegressor|model_kind|jitter|default_link|group_target_bytes"
    r"|assign_by_target_bytes|sentinel_wait_threshold_s|lossless_options|cost_model"
    r"|TenantQuota|QUEUED_ADMISSION|AdmissionError|check_admissible|set_quota"
    r"|job_id_prefix|sample_block|default_settings|max_features|random_state"
    r"|min_ratio|by_file|clear_staged|dataset_resolver"
    r"|VALID_PRIORITIES|priority_class|resolved_priority|verify_error_bound|idle_poll_s"
)


#: One encode path, whatever is being measured: the block encode keeps no
#: stage-timing fork of its own (``bench/``'s tracer times the stages on
#: the path that really runs).  Older blobs' ``"stage_timings"`` metadata
#: key stays in the header's name table, which this does not match.
STAGE_TIMING_FORK = re.compile(
    r"collect_stage_timings|last_stage_timings|_stage_totals|_timed\b|stage-timings"
)

#: One block encode: ``encode_blocks`` is what bulk assembles and what the
#: stream ships, so the streamed path keeps no encode of its own.
STREAM_ENCODE_FORK = re.compile(r"_encode_file")

#: No fallback that cannot fire: a file's pooled model covers every block,
#: so a coder has one ``encode`` (no shared / own pair) and a model missing
#: a symbol is an ``EncodingError``.  No name only tests call: nothing
#: saves, loads or ranks the quality model's features, no compressor
#: describes its fan-out, and the job log is never compacted.
TEST_ONLY_NAMES = re.compile(
    r"encode_shared|encode_own|save_model|load_model|model_to_dict|feature_importances"
    r"|entry_count|_configured_fanout|block_fanout|def compact|atomic_write_text"
)

#: Nothing outside the tests asked a predictor, a dataset or a plan to
#: describe itself; the error bound, endpoints, specs, the bus and the
#: cache still do.
UNDESCRIBED = (
    *sorted((SRC / "compression" / "predictors").glob("*.py")),
    SRC / "compression" / "zfp" / "transform.py",
    SRC / "datasets" / "base.py",
    SRC / "core" / "planner.py",
)

#: The only files that read this host's wall clock: a compression's
#: ``CompressionStats`` and feature extraction's timing.
WALL_CLOCK_READERS = {"compression/interface.py", "features/extractor.py"}


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


def test_containers_are_written_in_one_format():
    """Version 3 is the one container format written: the JSON header and
    base64 model older versions carried are read, never written, and the
    LZ77 codec nothing selected is gone."""
    written = {
        path.relative_to(SRC).as_posix()
        for path in (SRC / "compression").rglob("*.py")
        if re.search(r"json\.dumps|b64encode", path.read_text())
    }
    assert not written
    assert not (SRC / "compression" / "encoders" / "lz77.py").exists()


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
    ``CompressionStats`` and feature extraction, where the paper plots
    it)."""
    timed = {
        path.relative_to(SRC).as_posix()
        for package in ("core", "faas")
        for path in (SRC / package).rglob("*.py")
        if re.search(r"perf_counter|^import time\b|^from time import", path.read_text(), re.M)
    }
    assert not timed


def test_only_compression_stats_and_feature_extraction_read_perf_counter():
    readers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "perf_counter" in path.read_text()
    }
    assert readers == WALL_CLOCK_READERS


def test_the_block_encode_has_no_stage_timing_fork():
    found = {
        f"{path.relative_to(SRC).as_posix()}:{number}": line.strip()
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if STAGE_TIMING_FORK.search(line)
    }
    assert not found
    assert '"stage_timings"' in (SRC / "compression" / "header.py").read_text()


def test_the_stream_ships_the_bulk_encodes_blocks():
    found = {
        f"{path.relative_to(SRC).as_posix()}:{number}": line.strip()
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if STREAM_ENCODE_FORK.search(line)
    }
    assert not found
    assert ".encode_blocks(" in (SRC / "core" / "streaming.py").read_text()


def test_no_escape_fallback_or_test_only_name_comes_back():
    found = {
        f"{path.relative_to(SRC).as_posix()}:{number}": line.strip()
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if TEST_ONLY_NAMES.search(line)
    }
    assert not found
    assert not (SRC / "ml" / "model_io.py").exists()


def test_predictors_datasets_and_plans_do_not_describe_themselves():
    described = [
        path.relative_to(SRC).as_posix() for path in UNDESCRIBED
        if re.search(r"def describe\(", path.read_text())
    ]
    assert len(UNDESCRIBED) > 4 and not described


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


def test_rans_encodes_in_one_batch_loop():
    backward_loops = [
        node.lineno
        for node in ast.walk(ast.parse(RANS_ENCODE.read_text()))
        if isinstance(node, ast.For)
        and ast.unparse(node.iter).startswith("range(")
        and ast.unparse(node.iter).endswith(", -1, -1)")
    ]
    assert len(backward_loops) == 1
    assert [
        path.name for path in (SRC / "compression" / "sz").glob("*.py")
        if ONE_STREAM_ENCODE in path.read_text()
    ] == []


def test_huffman_model_builds_no_heap_or_queue():
    imported = {
        f"{name}:{node.lineno}"
        for name in HUFFMAN_MODEL
        for node in ast.walk(ast.parse((SRC / "compression" / "encoders" / name).read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and QUEUES & ({getattr(node, "module", None)} | {alias.name for alias in node.names})
    }
    assert not imported


def test_huffman_encode_is_one_gather_and_one_bincount_per_chunk():
    named = {
        node.name: node for node in ast.walk(ast.parse(HUFFMAN.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def calls(node, name):
        return [
            inner for inner in ast.walk(node)
            if isinstance(inner, ast.Call) and ast.unparse(inner.func).endswith(name)
        ]

    loops = [node for node in ast.walk(named[PAIR_WRITER]) if isinstance(node, ast.For)]
    assert len(loops) == 1  # over chunks
    assert len(calls(named[PAIR_WRITER], "np.bincount")) == len(calls(loops[0], "np.bincount")) == 1
    book = named["HuffmanCodebook"]
    caches = [
        node.target.id for node in book.body
        if isinstance(node, ast.AnnAssign) and "init=False" in ast.unparse(node)
        and node.target.id != "codes"
    ]
    assert caches == ["_table"]
    assert len(calls(book, ".take")) == 1


def test_gateway_buffers_no_events_of_its_own():
    found = {
        f"{path.name}:{node.lineno}"
        for path in GATEWAY.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name == "queue" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "queue")
        or (isinstance(node, ast.ClassDef) and node.name == "Subscription")
    }
    assert not found


def test_the_gateway_runs_on_one_thread_and_does_not_grow():
    texts = {path.name: path.read_text() for path in GATEWAY.glob("*.py")}
    assert [name for name, text in texts.items() if THREAD_PER_REQUEST in text] == []
    assert sum(text.count(ONE_THREAD) for text in texts.values()) == 1
    assert sum(len(text.splitlines()) for text in texts.values()) <= MAX_GATEWAY_LINES


def test_the_transfer_service_is_the_one_wan_model():
    texts = {path.relative_to(SRC).as_posix(): path.read_text() for path in SRC.rglob("*.py")}
    assert {name.split("/")[0] for name, text in texts.items() if ENGINE in text} == {"transfer"}
    assert texts["transfer/service.py"].count(ENGINE) == 1  # one engine per service
    assert {name for name, text in texts.items() if MOVE in text} == {"transfer/service.py"}
    assert not (SRC / "core" / "sentinel.py").exists()


def test_every_planned_block_is_encoded_and_the_cache_holds_blobs():
    found = {
        f"{path.relative_to(SRC).as_posix()}:{number}": line.strip()
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if DEDUP.search(line)
    }
    assert not found
    assert not (SRC / "compression" / "sz" / "dedup.py").exists()


def test_no_option_only_tests_set_comes_back():
    found = {
        f"{path.relative_to(SRC).as_posix()}:{number}": line.strip()
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if TEST_ONLY_OPTIONS.search(line)
    }
    assert not found
    assert not (SRC / "ml" / "random_forest.py").exists()
    assert not (SRC / "service" / "quotas.py").exists()
