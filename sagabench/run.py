#!/usr/bin/env python3
"""Saga benchmark driver.

    python3 sagabench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the library and the `sagabench`
binary from source into .bench_build/, sets up the workload's inputs from the
seed in a per-run directory under .bench_runs/, then starts one process per
repetition until S seconds of repetitions have run. With --trace 1 it runs
the traced sections instead and reports the per-layer metrics.

An aborted process (a signal, or a hang past its timeout) costs that
repetition only: it is counted in the fingerprint, kept out of the medians
and started again until the run's deadline. A repetition whose output checks
fail counts its operations as failed and its timings stay out of the medians;
an operation with a check of its own (the int8 quant gate) counts alone.
The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
BINARY = os.path.join(BUILD_DIR, "sagabench")

WORKLOADS = ("train", "serve_fp32", "serve_int8", "stream")
END_TO_END = {"setup_s": "s", "latency_ms": "ms", "windows_per_s": "windows/s"}

# Per-layer metrics of a traced run: name -> (unit, source, key, reduction).
# Sources: "span" (self time of spans named `key`, or with "children" the
# summed self times of their children), "sample" (a list the sections
# report), "value" (one number a section or the set-up reports).
PER_LAYER = {
    "mask.sensor_ms": ("ms", "span", "mask.sensor", "median"),
    "mask.point_ms": ("ms", "span", "mask.point", "median"),
    "mask.subperiod_ms": ("ms", "span", "mask.subperiod", "median"),
    "mask.period_ms": ("ms", "span", "mask.period", "median"),
    "signal.keypoints_us": ("us", "span", "signal.keypoints", "median"),
    "signal.main_period_us": ("us", "span", "signal.main_period", "median"),
    "pretrain.fwd_ms": ("ms", "span", "pretrain.forward", "median"),
    "pretrain.bwd_ms": ("ms", "span", "pretrain.backward", "median"),
    "pretrain.step_ms": ("ms", "span", "pretrain.step", "children"),
    "pretrain.untraced_step_ms": ("ms", "sample", "pretrain.untraced_step_ms", "median"),
    "pretrain.nodes_per_step": ("count", "sample", "pretrain.nodes_per_step", "median"),
    "pretrain.copies_per_step": ("count", "sample", "pretrain.copies_per_step", "median"),
    "adam.step_ms": ("ms", "span", "adam.step", "median"),
    "finetune.step_ms": ("ms", "value", "finetune.step_ms", None),
    "evaluate.windows_per_s": ("windows/s", "sample", "evaluate.windows_per_s", "median"),
    "gp.fit_ms": ("ms", "span", "gp.fit", "median"),
    "lws.overhead_ms_per_trial": ("ms", "sample", "lws.overhead_ms_per_trial", "median"),
    "lws.trials": ("count", "value", "lws.trials", None),
    "gemm.train_gflops": ("GFLOP/s", "sample", "gemm.train_gflops", "median"),
    "gemm.serve_gflops": ("GFLOP/s", "sample", "gemm.serve_gflops", "median"),
    "gemm_s8.serve_gops": ("GOP/s", "sample", "gemm_s8.serve_gops", "median"),
    "eltwise.bias_gelu_us": ("us", "span", "eltwise.bias_gelu", "median"),
    "eltwise.residual_ln_us": ("us", "span", "eltwise.residual_ln", "median"),
    "eltwise.gru_cell_us": ("us", "span", "eltwise.gru_cell", "median"),
    "attention.fwd_ms": ("ms", "span", "attention.fwd", "median"),
    "backbone.encode_b1_ms.fp32": ("ms", "span", "fp32.encode_b1", "median"),
    "backbone.encode_b16_ms.fp32": ("ms", "span", "fp32.encode_b16", "median"),
    "classifier.fwd_b1_ms.fp32": ("ms", "span", "fp32.classifier_b1", "median"),
    "classifier.fwd_b16_ms.fp32": ("ms", "span", "fp32.classifier_b16", "median"),
    "backbone.encode_b1_ms.int8": ("ms", "span", "int8.encode_b1", "median"),
    "backbone.encode_b16_ms.int8": ("ms", "span", "int8.encode_b16", "median"),
    "classifier.fwd_b1_ms.int8": ("ms", "span", "int8.classifier_b1", "median"),
    "classifier.fwd_b16_ms.int8": ("ms", "span", "int8.classifier_b16", "median"),
    "infer.nodes_per_forward": ("count", "sample", "infer.nodes_per_forward", "median"),
    "infer.copies_per_forward": ("count", "sample", "infer.copies_per_forward", "median"),
    "pool.parallel_for_us": ("us", "sample", "pool.parallel_for_us", "median"),
    "serve.batch_ms": ("ms", "value", "serve.batch_ms", None),
    "serve.mean_batch": ("count", "value", "serve.mean_batch", None),
    "serve.request_p50_ms": ("ms", "sample", "serve.request_ms", 0.50),
    "serve.request_p99_ms": ("ms", "sample", "serve.request_ms", 0.99),
    "serve.fp32_latency_p90_ms": ("ms", "sample", "serve.fp32_latency_ms", 0.90),
    "serve.int8_latency_p90_ms": ("ms", "sample", "serve.int8_latency_ms", 0.90),
    "router.stolen": ("count", "value", "router.stolen", None),
    "router.shard_skew": ("ratio", "value", "router.shard_skew", None),
    "session.push_ns": ("ns", "sample", "session.push_ns", "median"),
    "session.poll_us": ("us", "span", "session.poll", "median"),
    "preprocess.window_us": ("us", "span", "preprocess.window", "median"),
    "composer.push_us": ("us", "span", "composer.push", "median"),
    "stream.event_lag_p50_ms": ("ms", "sample", "latency_ms", 0.50),
    "stream.event_lag_p90_ms": ("ms", "sample", "latency_ms", 0.90),
    "stream.backlog_lag_p50_ms": ("ms", "sample", "stream.backlog_lag_ms", 0.50),
    "stream.generator_late_ms": ("ms", "sample", "stream.generator_late_ms", "median"),
    "stream.windows_sealed": ("count", "value", "stream.windows_sealed", None),
    "data.generate_s": ("s", "value", "data.generate_s", None),
    "setup.fit_s": ("s", "value", "setup.fit_s", None),
    "quant.quantize_s": ("s", "value", "quant.quantize_s", None),
    "harness.aborted_processes": ("count", "value", "harness.aborted_processes", None),
}
TRACED_SECTIONS = ("train", "serve", "stream", "pool")
SPAN_SCALE = {"ms": 1e-3, "us": 1.0}  # span times are recorded in us

# The summed self times of a traced pre-training step's spans must agree with
# pretrain_backbone's own wall time per step within this share.
STEP_AGREEMENT = 0.15

HARD_LIMIT_S = 165.0  # after the build, a run ends within this
# A process still running after this has hung (the pool race can deadlock as
# well as abort); normal set-ups and repetitions take under 15 s.
PROCESS_TIMEOUT_S = 40.0


# ---- statistics -------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median with Python's default quantile method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def percentile(values, q):
    """Nearest-rank q-quantile, or None unless at least ten samples lie
    beyond it (a tail estimate needs that many observations)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return ordered[rank - 1]


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. `spans` are [name, id, parent, request, start, end]."""
    children = {}
    for span in spans:
        children.setdefault(span[2], []).append(span)
    result = {}
    for name, span_id, _parent, _request, start, end in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span_id, []), key=lambda s: s[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (name, end - start - covered)
    return result


def span_metrics(spans):
    """Per span name, two lists: self times and (for spans with children)
    the children's summed self times."""
    selfs = self_times(spans)
    by_name, children_sum = {}, {}
    parent_of = {span[1]: span[2] for span in spans}
    for span_id, (name, self_us) in selfs.items():
        by_name.setdefault(name, []).append(self_us)
        parent = parent_of[span_id]
        if parent in selfs:
            children_sum[parent] = children_sum.get(parent, 0.0) + self_us
    covered = {}
    for parent_id in sorted(children_sum):  # ids grow with start time
        covered.setdefault(selfs[parent_id][0], []).append(children_sum[parent_id])
    return by_name, covered


def step_agreement(traced_steps, untraced_passes):
    """How far the traced pre-training step is from pretrain_backbone's own:
    the median over passes of (mean traced step / untraced step) - 1. The
    traced steps are in order, pass p holding the p-th equal share, and each
    traced pass ran right after its untraced one."""
    per_pass = len(traced_steps) // len(untraced_passes)
    ratios = [statistics.fmean(traced_steps[p * per_pass:(p + 1) * per_pass]) / wall
              for p, wall in enumerate(untraced_passes)]
    return median(ratios) - 1.0


# ---- processes --------------------------------------------------------------

class Tally:
    def __init__(self):
        self.started = 0
        self.aborted = 0
        self.check_failed = 0


_live = []  # the benchmark process running now, if any


def stop_live_process(signum, _frame):
    for process in _live:
        process.kill()
        process.wait()
    sys.exit(128 + signum)


def no_core_files():
    """An abort leaves no core file in the checkout."""
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def run_process(command, timeout):
    """Runs one benchmark process. Returns (status, result, stderr) with
    status "ok", "check_failed", "aborted" (a signal or a hang) or "error"."""
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               preexec_fn=no_core_files)
    _live.append(process)
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        out, err = process.communicate()
        return "aborted", None, err + "\n[timed out]"
    finally:
        _live.remove(process)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if process.returncode < 0:
        return "aborted", None, err
    if process.returncode == 0 and result is not None:
        return "ok", result, err
    if process.returncode == 3 and result is not None:
        return "check_failed", result, err
    return "error", result, err


def attempt(command, tally, deadline, stamp_t0=False):
    """Starts `command` again after every abort until it ends some other way
    or the run's deadline passes. `stamp_t0` appends the spawn time, the
    start of a set-up's cold clock."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 1.0:
            return "aborted", None
        full = command + (["--t0", repr(time.monotonic())] if stamp_t0 else [])
        tally.started += 1
        status, result, err = run_process(full, min(PROCESS_TIMEOUT_S, remaining))
        if status != "aborted":
            if err.strip() and status != "ok":
                sys.stderr.write(err[-2000:])
            return status, result
        tally.aborted += 1
        sys.stderr.write("[sagabench] process aborted, starting it again: %s\n"
                         % err.strip()[-300:])


# ---- build and fingerprint --------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("sagabench: no Saga sources next to %s\n" % HERE)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "sagabench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log, stderr=log) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return False
    return os.path.isfile(BINARY)


def source_version():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


# ---- runs -------------------------------------------------------------------

def run_dir_for(args):
    path = os.path.join(RUNS_DIR, "%s-seed%d-trace%d-pid%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def e2e_run(args, binary, run_dir, tally, deadline):
    base = ["--seed", str(args.seed), "--dir", run_dir]
    status, setup = attempt(binary + ["setup", "--workload", args.workload] + base,
                            tally, deadline, stamp_t0=True)
    if status != "ok":
        raise RuntimeError("set-up failed (%s)" % status)
    if args.workload == "serve_int8":
        # The quant gate's fixed-seed model, fitted in a process of its own
        # after the timed set-up.
        status, _ = attempt(binary + ["setup", "--workload", "gate"] + base,
                            tally, deadline, stamp_t0=True)
        if status != "ok":
            raise RuntimeError("quant gate set-up failed (%s)" % status)
    attempted = failed = finished = 0
    reps = []
    stop = time.monotonic() + args.seconds
    while not finished or time.monotonic() < stop:
        status, result = attempt(binary + ["rep", "--workload", args.workload] + base,
                                 tally, deadline)
        finished += status in ("ok", "check_failed")
        if status == "ok":
            reps.append(result)
            attempted += result["ops"]
            failed += result["failed"]
            if result["failed"]:
                sys.stderr.write("[sagabench] %d operation(s) failed: %s\n" % (
                    result["failed"], "; ".join(result["errors"])[:2000]))
        elif status == "check_failed":
            tally.check_failed += 1
            attempted += result["ops"]
            failed += result["ops"]
            sys.stderr.write("[sagabench] output check failed: %s\n"
                             % "; ".join(result["errors"])[:2000])
        elif status == "aborted" and finished:
            break  # the deadline passed while a repetition kept aborting
        else:
            raise RuntimeError("repetition failed (%s)" % status)
    metrics = {"setup_s": setup["values"]["setup_s"]}
    for name in END_TO_END:
        if name != "setup_s" and reps:
            metrics[name] = median([median(r["samples"][name]) for r in reps])
    info = {"repetitions": len(reps)}
    for extra in ("finetune_windows_per_s", "test_accuracy"):
        if reps and extra in reps[0]["samples"]:
            info[extra] = median([r["samples"][extra][0] for r in reps])
    for extra in ("gate.fp32_accuracy_pt", "gate.int8_accuracy_pt"):
        if reps and extra in reps[0]["values"]:
            info[extra] = reps[0]["values"][extra]
    return metrics, attempted, failed, setup, info


def traced_run(args, binary, run_dir, tally, deadline):
    base = ["--seed", str(args.seed), "--dir", run_dir]
    status, setup = attempt(binary + ["setup", "--workload", "trace"] + base,
                            tally, deadline, stamp_t0=True)
    if status != "ok":
        raise RuntimeError("set-up failed (%s)" % status)
    values, samples, spans = dict(setup["values"]), {}, {}
    attempted = failed = 0
    for section in TRACED_SECTIONS:
        status, result = attempt(binary + ["traced", "--section", section] + base,
                                 tally, deadline)
        if status not in ("ok", "check_failed"):
            raise RuntimeError("traced section %s failed (%s)" % (section, status))
        attempted += result["ops"]
        if status == "check_failed":
            tally.check_failed += 1
            failed += result["ops"]
        else:
            failed += result["failed"]
        values.update(result["values"])
        samples.update(result["samples"])
        with open(os.path.join(run_dir, "trace-%s.json" % section)) as handle:
            spans[section] = json.load(handle)["spans"]
    values["harness.aborted_processes"] = tally.aborted
    return values, samples, spans, attempted, failed, setup


def layer_metrics(values, samples, section_spans):
    """Per-layer metrics from the traced sections' values, samples and spans.
    `section_spans` maps a section to its span list (ids are per process)."""
    by_name, covered = {}, {}
    for spans in section_spans.values():
        for merged, part in zip((by_name, covered), span_metrics(spans)):
            for key, items in part.items():
                merged.setdefault(key, []).extend(items)
    metrics = {}
    for name, (unit, source, key, reduce) in PER_LAYER.items():
        value = None
        if source == "value":
            value = values.get(key)
        elif source == "sample" and samples.get(key):
            if reduce == "median":
                value = median(samples[key])
            else:
                value = percentile(samples[key], reduce)
        elif source == "span":
            scale = SPAN_SCALE[unit]
            if reduce == "children" and covered.get(key):
                value = statistics.fmean(covered[key]) * scale
            elif reduce == "median" and by_name.get(key):
                value = median(by_name[key]) * scale
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None, binary=None, do_build=True):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if do_build and not build():
        sys.stderr.write("sagabench: build failed\n")
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    binary = binary or [BINARY]
    run_dir = run_dir_for(args)
    tally = Tally()
    correct = True
    try:
        if args.trace:
            values, samples, spans_by_section, attempted, failed, setup = traced_run(
                args, binary, run_dir, tally, deadline)
            metrics = layer_metrics(values, samples, spans_by_section)
            missing = [m for m in PER_LAYER if m not in metrics]
            if missing:
                sys.stderr.write("[sagabench] metrics not measured: %s\n" % missing)
                correct = False
            step, wall = metrics.get("pretrain.step_ms"), metrics.get(
                "pretrain.untraced_step_ms")
            if step and wall:
                # The spans must account for the step they split up, or the
                # per-layer metrics do not describe the program's own step.
                _, covered = span_metrics(spans_by_section["train"])
                agreement = step_agreement(
                    [us * 1e-3 for us in covered["pretrain.step"]],
                    samples["pretrain.untraced_step_ms"])
                ok = abs(agreement) <= STEP_AGREEMENT
                correct = correct and ok
                print("TRACE_CHECK %s: pretrain step spans %.2f ms vs "
                      "pretrain_backbone %.2f ms per step (paired %+.1f%%, bound %.0f%%)"
                      % ("pass" if ok else "FAIL", step["value"], wall["value"],
                         100 * agreement, 100 * STEP_AGREEMENT))
            traced = {k: median(v) for k, v in samples.items()
                      if k.startswith("traced.") or k in (
                          "serve.fp32_latency_ms", "serve.int8_latency_ms")}
            traced["stream.windows_per_s"] = median(samples.get("windows_per_s", [0]))
            print("TRACED_E2E " + json.dumps(traced, sort_keys=True))
        else:
            e2e, attempted, failed, setup, info = e2e_run(
                args, binary, run_dir, tally, deadline)
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in e2e.items()}
            correct = len(metrics) == len(END_TO_END)
            print("SUMMARY " + json.dumps(info, sort_keys=True))
    except (RuntimeError, KeyError, ValueError, OSError) as error:
        sys.stderr.write("sagabench: %s\n" % error)
        return 1
    finally:
        for name in ("fp32.artifact", "int8.artifact", "test.windows"):
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                os.remove(path)
        shutil.rmtree(os.path.join(run_dir, "gate"), ignore_errors=True)

    for item in metrics.values():
        correct = correct and math.isfinite(item["value"])
    fingerprint = dict(setup.get("info", {}))
    fingerprint.update({"source": source_version(), "nproc": os.cpu_count(),
                        "workload": args.workload, "seed": args.seed,
                        "processes": tally.started,
                        "aborted_processes": tally.aborted,
                        "check_failed_processes": tally.check_failed,
                        "run_dir": os.path.relpath(run_dir, ROOT)})
    print("FINGERPRINT " + json.dumps(fingerprint, sort_keys=True))
    line = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump({"fingerprint": fingerprint, "result": line}, handle, indent=1)
    print(json.dumps(line))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop_live_process)
    signal.signal(signal.SIGINT, stop_live_process)
    sys.exit(main())
