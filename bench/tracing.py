"""Per-layer tracing installed from outside the program.

The benchmark wraps the layer entry points of `recipe` as module and class
attributes; nothing under src/ knows about it.  Spans are aggregated per
name (calls, total, self) instead of kept one record per call, because the
hottest boundaries (PeelingState.insert, replay_xor_mask) run once per
codeword.  A span's self time is its duration minus the time of the spans
it caused, so nested layers add up to the caller's wall time.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

from recipe import cli, decoder, evaluation, feasibility, protocol, search


class Tracer:
    """Aggregated spans and counts for one traced phase."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn, count=None):
        """`fn` timed as span `name`; `count(args, result)` adds to counts[name]."""

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
            if count is not None:
                self.counts[name] += count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in _TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                fn = _counting_insert(self, original) if name == "decoder.insert" else original
                setattr(owner, attr, self.wrap(name, fn, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _counting_insert(tracer: Tracer, insert):
    """PeelingState.insert that also counts useful inserts: those that
    parked a codeword or resolved a hop (the rest carried no new hop)."""

    def counted(state, mask, value):
        before = state.pending_count()
        newly = insert(state, mask, value)
        if newly or state.pending_count() > before:
            tracer.counts["decoder.insert.useful"] += 1
        return newly

    return counted


def _n_ids(args, _result):
    return int(args[-1].size)  # hash_uniform_array(gh, hop, packet_ids)


def _n_packets(args, _result):
    return int(args[2].size)  # generate_masks(self, k, pids)


def _n_codewords(args, _result):
    return len(args[0])  # _codeword_values(masks, switch_ids)


def _score_codewords(args, result):
    return round(result * args[0].trials)  # mean used x trials


# (owner, attribute, span name, counter) for every traced boundary.  A
# function imported into several modules is patched in each module that
# calls it, under one span name.  The evaluation.efficiency_curve and
# search.hrs/qps spans are reported by no metric; they exist so that
# cli.self_s excludes the library work under them.
_TARGETS = [
    (cli, "main", "cli", None),
    (cli, "efficiency_curve", "evaluation.efficiency_curve", None),
    (cli, "hrs_search", "search.hrs", None),
    (cli, "qps_search", "search.qps", None),
    (cli, "derive_apa", "feasibility.derive_apa", None),
    (cli, "generate_avst", "protocol.gen_avst", None),
    (cli, "check_feasible", "feasibility.check", None),
    (feasibility, "check_feasible", "feasibility.check", None),
    (search, "check_feasible", "feasibility.check", None),
    (evaluation, "run_trials", "evaluation.run_trials", None),
    (evaluation.RecipeDScheme, "generate_masks", "evaluation.masks.recipe-d", _n_packets),
    (evaluation.RecipeTScheme, "generate_masks", "evaluation.masks.recipe-t", _n_packets),
    (evaluation.PintScheme, "generate_masks", "evaluation.masks.pint", _n_packets),
    (evaluation, "_codeword_values", "evaluation.values", _n_codewords),
    (evaluation, "hash_uniform_array", "protocol.hash", _n_ids),
    (protocol, "hash_uniform_array", "protocol.hash", _n_ids),
    (evaluation, "row_select_array", "protocol.row_select", None),
    (decoder, "row_select", "protocol.row_select", None),
    (decoder.PeelingState, "insert", "decoder.insert", None),
    (decoder.PeelingState, "_resolve_cascade", "decoder.cascade", None),
    (decoder, "replay_xor_mask", "decoder.replay", None),
    (decoder, "decode_stream", "decoder.decode_stream", None),
    (search._ScoringBank, "__init__", "search.bank", None),
    (search._ScoringBank, "score", "search.score", _score_codewords),
    (search, "_objective_and_grad", "search.objective", None),
    (search, "project_invariant_polytope", "search.project", None),
    (search, "_project_weighted_simplex", "search.project", None),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(job: Tracer, rounds: int, setup: Tracer, setups: int,
                  consumed: int, qps_iterations: int) -> dict[str, float]:
    """Per-layer metrics, per traced round (set-up layers: per set-up).

    `consumed` is the codewords the decoder consumed over the traced rounds
    and `qps_iterations` the QPS trace length, both read from the outputs.
    A layer the workload does not exercise reads 0.
    """
    per = 1.0 / rounds
    m = {
        "decoder.insert.calls": job.calls["decoder.insert"] * per,
        "decoder.insert.self_s": job.self_time["decoder.insert"] * per,
        "decoder.cascade.self_s": job.self_time["decoder.cascade"] * per,
        "decoder.useful_insert_ratio": _ratio(job.counts["decoder.insert.useful"],
                                              job.calls["decoder.insert"]),
        "decoder.replay.calls": job.calls["decoder.replay"] * per,
        "decoder.replay.self_s": job.self_time["decoder.replay"] * per,
        "decoder.decode_stream.self_s": job.self_time["decoder.decode_stream"] * per,
    }
    packets = self_s = 0.0
    for scheme in ("recipe-d", "recipe-t", "pint"):
        name = f"evaluation.masks.{scheme}"
        m[f"{name}.packets"] = job.counts[name] * per
        m[f"{name}.self_s"] = job.self_time[name] * per
        packets += job.counts[name]
        self_s += job.self_time[name]
    m["evaluation.masks.packets"] = packets * per
    m["evaluation.masks.self_s"] = self_s * per
    m.update({
        "evaluation.values.codewords": job.counts["evaluation.values"] * per,
        "evaluation.values.self_s": job.self_time["evaluation.values"] * per,
        "evaluation.mask_use_ratio": _ratio(consumed if packets else 0, packets),
        "evaluation.run_trials.self_s": job.self_time["evaluation.run_trials"] * per,
        "protocol.hash.elements": job.counts["protocol.hash"] * per,
        "protocol.hash.self_s": job.self_time["protocol.hash"] * per,
        "protocol.row_select.self_s": job.self_time["protocol.row_select"] * per,
        "protocol.gen_avst.s": setup.total["protocol.gen_avst"] / setups,
        "feasibility.derive_apa.s": setup.total["feasibility.derive_apa"] / setups,
        "feasibility.check.s": setup.total["feasibility.check"] / setups,
        "search.score.calls": job.calls["search.score"] * per,
        "search.score.self_s": job.self_time["search.score"] * per,
        "search.score.codewords": job.counts["search.score"] * per,
        "search.bank.s": job.total["search.bank"] * per,
        "search.objective.calls": job.calls["search.objective"] * per,
        "search.objective.self_s": job.self_time["search.objective"] * per,
        "search.project.calls": job.calls["search.project"] * per,
        "search.project.self_s": job.self_time["search.project"] * per,
        "search.qps_iterations": qps_iterations * per,
        "cli.self_s": job.self_time["cli"] * per,
    })
    return m
