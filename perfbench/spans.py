"""Span recorder that wraps mwetag's layer functions from outside.

The library has no tracing of its own, so a traced run replaces each layer
function with a wrapper that records one span (name, start, end, parent).
Modules import each other's functions by name (``tagger`` calls its own
``bilstm`` binding, ``baseline`` its own ``forward_backward``), so a function
is replaced in every ``mwetag`` module that binds it, not only where it is
defined. Methods are replaced on their class. ``Tape.record`` is only counted:
it runs hundreds of times per sentence.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, module, attribute, class or None)
SPAN_TARGETS = [
    ("autodiff.conv1d_same", "mwetag.autodiff", "conv1d_same", None),
    ("autodiff.bilstm", "mwetag.autodiff", "bilstm", None),
    ("autodiff.dense", "mwetag.autodiff", "dense", None),
    ("autodiff.backward", "mwetag.autodiff", "backward", None),
    ("tagger.forward", "mwetag.tagger", "forward", None),
    ("tagger.train", "mwetag.tagger", "train", None),
    ("tagger.adam_step", "mwetag.tagger", "step", "AdamOptimizer"),
    ("chaincrf.crf_nll", "mwetag.chaincrf", "crf_nll", None),
    ("chaincrf.viterbi", "mwetag.chaincrf", "viterbi", None),
    ("chaincrf.forward_backward", "mwetag.chaincrf", "forward_backward", None),
    ("chaincrf.log_partition", "mwetag.chaincrf", "log_partition", None),
    ("chaincrf.score_path", "mwetag.chaincrf", "score_path", None),
    ("baseline.train_baseline", "mwetag.baseline", "train_baseline", None),
    ("baseline.problem_build", "mwetag.baseline", "__init__", "BaselineProblem"),
    ("baseline.loss", "mwetag.baseline", "loss", "BaselineProblem"),
    ("baseline.loss_and_grad", "mwetag.baseline", "loss_and_grad", "BaselineProblem"),
    ("baseline.extract_features", "mwetag.baseline", "extract_features", None),
    ("baseline.tag_baseline", "mwetag.baseline", "tag_baseline", None),
    ("embed.load_vec_file", "mwetag.embed", "load_vec_file", None),
    ("embed.encode", "mwetag.embed", "encode", None),
    ("corpus.read_cupt", "mwetag.corpus", "read_cupt", None),
    ("corpus.write_cupt", "mwetag.corpus", "write_cupt", None),
    ("corpus.from_tags", "mwetag.corpus", "from_tags", None),
    ("corpus.to_tags", "mwetag.corpus", "to_tags", None),
    ("evaluation.evaluate", "mwetag.evaluation", "evaluate", None),
    ("evaluation.seen_unseen", "mwetag.evaluation", "seen_unseen", None),
    ("serialize.dumps_model", "mwetag.serialize", "dumps_model", None),
    ("serialize.atomic_write_text", "mwetag.serialize", "atomic_write_text", None),
    ("serialize.load_model", "mwetag.serialize", "load_model", None),
    ("serialize.model_from_dict", "mwetag.serialize", "model_from_dict", None),
]
COUNTED = ("tape_records", "mwetag.autodiff", "record", "Tape")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    """Holds the spans of one stretch of work; ``install`` swaps the wrappers
    in and ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)
        self.active = True

    @contextlib.contextmanager
    def paused(self):
        """Run a block (such as an output check) without recording it."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = self.counters
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(counters, result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _replace(self, module: str, attr: str, cls: str | None, make):
        owner_module = sys.modules[module]
        if cls is not None:
            owner = getattr(owner_module, cls)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            self._patched.append((owner, attr, original))
            return
        original = getattr(owner_module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mwetag" or name.startswith("mwetag.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)
                    self._patched.append((mod, binding, original))

    def install(self):
        if self._patched:
            raise RuntimeError("recorder is already installed")
        for name, module, attr, cls in SPAN_TARGETS:
            self._replace(module, attr, cls, functools.partial(self._span, name))
        key, module, attr, cls = COUNTED
        self._replace(module, attr, cls, functools.partial(self._count, key))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries ----------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Calls, inclusive and self seconds per span name."""
        if self._stack:
            raise RuntimeError("spans are still open")
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for (name, start, end, _parent), children in zip(self.spans, child_s):
            entry = out[name]
            entry.calls += 1
            entry.total_s += end - start
            entry.self_s += end - start - children
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Calls of ``child_name`` made directly from a ``parent_name`` span."""
        names = [span[0] for span in self.spans]
        return sum(
            1
            for name, _s, _e, parent in self.spans
            if name == child_name and parent >= 0 and names[parent] == parent_name
        )


def _count_tokens(counters, corpus):
    counters["tokens_read"] += sum(len(s.tokens) for s in corpus)


def _model_bytes(counters, text):
    counters["model_bytes"] = len(text.encode("utf-8"))


_OBSERVERS = {
    "corpus.read_cupt": _count_tokens,
    "serialize.dumps_model": _model_bytes,
}


NEURAL, BASELINE, EVAL = "neural-crf", "baseline-standard", "eval-large"

# per-layer metric -> (unit, workloads on which it must be non-zero)
LAYER_METRICS = {
    "autodiff.conv1d_same.s": ("s", (NEURAL,)),
    "autodiff.bilstm.s": ("s", (NEURAL,)),
    "autodiff.dense.s": ("s", (NEURAL,)),
    "autodiff.backward.s": ("s", (NEURAL,)),
    "autodiff.tape_nodes_per_tok": ("node/tok", (NEURAL,)),
    "tagger.forward.s": ("s", (NEURAL,)),
    "tagger.adam_step.s": ("s", (NEURAL,)),
    "tagger.adam_step.calls": ("count", (NEURAL,)),
    "tagger.train.s": ("s", (NEURAL,)),
    "chaincrf.crf_nll.s": ("s", (NEURAL,)),
    "chaincrf.viterbi.s": ("s", (NEURAL, BASELINE)),
    "chaincrf.forward_backward.s": ("s", (NEURAL, BASELINE)),
    "chaincrf.forward_backward.calls": ("count", (NEURAL, BASELINE)),
    "chaincrf.log_partition.s": ("s", (BASELINE,)),
    "chaincrf.log_partition.calls": ("count", (BASELINE,)),
    "chaincrf.score_path.s": ("s", (NEURAL, BASELINE)),
    "baseline.problem_build.s": ("s", (BASELINE,)),
    "baseline.loss.s": ("s", (BASELINE,)),
    "baseline.loss.calls": ("count", (BASELINE,)),
    "baseline.loss_and_grad.s": ("s", (BASELINE,)),
    "baseline.loss_and_grad.calls": ("count", (BASELINE,)),
    "baseline.objective_evals": ("count", (BASELINE,)),
    "baseline.linesearch_accept_ratio": ("ratio", (BASELINE,)),
    "baseline.extract_features.s": ("s", (BASELINE,)),
    "baseline.tag_baseline.s": ("s", (BASELINE,)),
    "embed.load_vec_file.s": ("s", (NEURAL,)),
    "embed.encode.s": ("s", (NEURAL,)),
    "embed.encode.calls": ("count", (NEURAL,)),
    "corpus.read_cupt.s": ("s", (NEURAL, BASELINE, EVAL)),
    "corpus.parse_tok_s": ("tok/s", (NEURAL, BASELINE, EVAL)),
    "corpus.write_cupt.s": ("s", (NEURAL, BASELINE)),
    "corpus.from_tags.s": ("s", (NEURAL, BASELINE)),
    "corpus.to_tags.s": ("s", (NEURAL, BASELINE)),
    "evaluation.evaluate.s": ("s", (EVAL,)),
    "evaluation.seen_unseen.s": ("s", (EVAL,)),
    "serialize.dumps_model.s": ("s", (NEURAL, BASELINE)),
    "serialize.atomic_write_text.s": ("s", (NEURAL, BASELINE, EVAL)),
    "serialize.load_model.s": ("s", (NEURAL, BASELINE)),
    "serialize.model_from_dict.s": ("s", (NEURAL, BASELINE)),
    "serialize.model_bytes": ("bytes", (NEURAL, BASELINE)),
    # traced pass seconds / untraced pass seconds - 1; may read below 0
    "trace.overhead": ("ratio", ()),
}


def layer_metrics(recorder: Recorder, train_tokens: int) -> dict[str, float]:
    """Per-layer values of one traced pass (all but trace.overhead)."""
    stats = recorder.stats()
    counters = recorder.counters
    values = {}
    for name in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field == "s":
            values[name] = stats[span].self_s if span in stats else 0.0
        elif field == "calls":
            values[name] = stats[span].calls if span in stats else 0
    fit = "baseline.train_baseline"
    trials = recorder.child_calls(fit, "baseline.loss")
    with_grad = recorder.child_calls(fit, "baseline.loss_and_grad")
    # one loss_and_grad before the first step, one per accepted step
    accepted = max(with_grad - 1, 0)
    read = stats.get("corpus.read_cupt")
    values.update({
        "autodiff.tape_nodes_per_tok":
            counters["tape_records"] / train_tokens if train_tokens else 0.0,
        "baseline.objective_evals": trials + with_grad,
        "baseline.linesearch_accept_ratio": accepted / trials if trials else 0.0,
        "corpus.parse_tok_s":
            counters["tokens_read"] / read.total_s if read and read.total_s else 0.0,
        "serialize.model_bytes": counters["model_bytes"],
    })
    return values
