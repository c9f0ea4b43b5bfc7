"""Span tracing for the traced benchmark run.

``install`` replaces selected invfuse functions and methods, in place, with
wrappers that append one span per call to an in-memory list: name, start,
end, parent span, request id, the pass it belongs to, an optional count
computed from the arguments, and whether the call raised.  Nothing in the
library changes; the wrappers exist only in a process started with
``--trace 1``.  A function imported by name into another module
(``from .autodiff import _conv2d_data``) has a second binding there, so
each target lists every namespace whose binding is replaced.

Calls are nested on one thread, so the child spans of a span never
overlap and a span's self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("autodiff", "flow", "losses", "training", "metrics", "data")

# index of each field in a span record
NAME, START, END, PARENT, RID, PASS, COUNT, FAILED = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_index = None  # -1 during set-up, None outside set-up and timing
        self.rid = None

    def begin(self, pass_index, rid):
        self.pass_index = pass_index
        self.rid = rid

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rid,
                    self.pass_index, count(*args, **kwargs) if count else None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def write(self, path):
        keys = ("name", "start", "end", "parent", "rid", "pass", "count", "failed")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- counts computed from argument shapes --------------------------------

def _conv_fwd_count(x, w, ph, pw):
    """(FLOPs, bytes of input, kernel and output) of one _conv2d_data call."""
    B, C, H, W = x.shape
    O, _, Kh, Kw = w.shape
    Ho, Wo = H + 2 * ph - Kh + 1, W + 2 * pw - Kw + 1
    return 2 * B * O * C * Kh * Kw * Ho * Wo, x.itemsize * (x.size + w.size + B * O * Ho * Wo)


def _conv_grad_w_count(x, g, ph, pw):
    """(FLOPs, bytes of input, output gradient and kernel gradient)."""
    B, C, H, W = x.shape
    _, O, Ho, Wo = g.shape
    Kh, Kw = H + 2 * ph - Ho + 1, W + 2 * pw - Wo + 1
    return 2 * B * O * C * Kh * Kw * Ho * Wo, x.itemsize * (x.size + g.size + O * C * Kh * Kw)


def _pgm_read_count(path):
    return os.path.getsize(path)


def _pgm_write_count(img, path):
    h, w = img.shape
    return len(f"P5\n{w} {h}\n255\n") + h * w


def _tape_nodes_count(tape, root):
    return len(tape.nodes)


def targets():
    """(span name, attribute, namespaces whose binding is replaced, counter)."""
    from invfuse import autodiff, data, flow, losses, metrics, training
    return [
        ("autodiff.conv_fwd", "_conv2d_data", (autodiff, metrics), _conv_fwd_count),
        ("autodiff.conv_grad_w", "_conv2d_grad_w", (autodiff,), _conv_grad_w_count),
        ("autodiff.backward", "backward", (autodiff.Tape,), _tape_nodes_count),
        ("flow.forward", "forward", (flow.BoundFlow,), None),
        ("flow.inverse", "inverse", (flow.BoundFlow,), None),
        ("flow.sample_latent", "sample_latent", (flow, training), None),
        ("losses.fusion", "fusion_loss", (losses, training), None),
        ("losses.latent", "latent_loss", (losses, training), None),
        ("losses.decomposition", "decomposition_loss", (losses, training), None),
        ("training.step", "step", (training.Trainer,), None),
        ("training.adam", "adam_step", (training,), None),
        ("training.validate", "validate", (training,), None),
        ("metrics.evaluate_pair", "evaluate_pair", (metrics,), None),
        # only the metrics binding: the SSIM inside the training losses and
        # validate belongs to losses/training, not to the fusion scores
        ("metrics.q_ssim", "q_ssim", (metrics,), None),
        ("metrics.q_fmi", "_q_fmi_impl", (metrics,), None),
        ("metrics.q_ncie", "q_ncie", (metrics,), None),
        ("metrics.q_xy", "_q_xy_impl", (metrics,), None),
        ("metrics.q_p", "_q_p_impl", (metrics,), None),
        ("data.pgm_read", "load_grayscale", (data,), _pgm_read_count),
        ("data.pgm_write", "save_grayscale", (data,), _pgm_write_count),
        ("data.synth_pair", "synth_pair", (data,), None),
    ]


def install(tracer):
    for name, attr, namespaces, count in targets():
        original = getattr(namespaces[0], attr)
        traced = tracer.wrap(name, original, count)
        for ns in namespaces:
            if getattr(ns, attr) is not original:
                raise RuntimeError(f"{ns.__name__}.{attr} is not the function traced as {name}")
            setattr(ns, attr, traced)


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(spans, passes, setups):
    """Per-layer figures of a traced run.

    Times are seconds per pass, summed over the timed passes and divided by
    their number; ``data.synth_pair_s`` is seconds per set-up.  Counts
    (conv calls, FLOPs, bytes, tape nodes, PGM bytes, spans) are those of
    the first pass, which every pass repeats exactly.  ``<layer>.failed``
    counts the wrapped calls that raised, anywhere in the run.
    """
    total = defaultdict(float)
    setup_total = defaultdict(float)
    self_time = defaultdict(float)
    child = defaultdict(float)
    first = defaultdict(int)
    conv_flop = conv_bytes = conv_calls = 0
    all_flop = 0
    failed = dict.fromkeys(LAYERS, 0)
    first_spans = 0

    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    for i, span in enumerate(spans):
        name, p = span[NAME], span[PASS]
        dur = span[END] - span[START]
        if span[FAILED]:
            failed[name.split(".")[0]] += 1
        if p == -1:
            setup_total[name] += dur
            continue
        if p is None:
            continue
        total[name] += dur
        self_time[name] += dur - child[i]
        c = span[COUNT]
        if name.startswith("autodiff.conv"):
            all_flop += c[0]
        if p == 0:
            first_spans += 1
            if name.startswith("autodiff.conv"):
                conv_calls += 1
                conv_flop += c[0]
                conv_bytes += c[1]
            elif c is not None:
                first[name] += c

    conv_s = self_time["autodiff.conv_fwd"] + self_time["autodiff.conv_grad_w"]

    out = {
        "autodiff.conv_fwd.self_s": (self_time["autodiff.conv_fwd"] / passes, "s"),
        "autodiff.conv_grad_w.self_s": (self_time["autodiff.conv_grad_w"] / passes, "s"),
        "autodiff.backward.self_s": (self_time["autodiff.backward"] / passes, "s"),
        "autodiff.tape_nodes": (first["autodiff.backward"], "count"),
        "autodiff.conv.calls": (conv_calls, "count"),
        "autodiff.conv.gflop": (conv_flop / 1e9, "GFLOP"),
        "autodiff.conv.gbytes": (conv_bytes / 1e9, "GB"),
        "autodiff.conv.gflop_per_s": (all_flop / 1e9 / conv_s if conv_s else 0.0, "GFLOP/s"),
    }
    for span_name in ("flow.forward", "flow.inverse", "flow.sample_latent",
                      "losses.fusion", "losses.latent", "losses.decomposition",
                      "training.step", "training.adam", "training.validate",
                      "metrics.evaluate_pair", "metrics.q_ssim", "metrics.q_fmi",
                      "metrics.q_ncie", "metrics.q_xy", "metrics.q_p",
                      "data.pgm_read", "data.pgm_write"):
        out[span_name + "_s"] = (total[span_name] / passes, "s")
    out["data.pgm_bytes"] = (first["data.pgm_read"] + first["data.pgm_write"], "bytes")
    out["data.synth_pair_s"] = (setup_total["data.synth_pair"] / setups, "s")
    for layer in LAYERS:
        out[f"{layer}.failed"] = (failed[layer], "count")
    out["trace.spans"] = (first_spans, "count")
    return out
