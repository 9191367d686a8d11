"""Per-layer tracing installed from outside the program.

Tracer.installed() swaps wrappers onto the public functions and methods of
each qnav module (at every name a caller looks them up by) and restores the
originals on exit. Calls at layer boundaries become spans, kept in memory:
(id, parent id, name, start, end, episode id). A span's self time is its
duration minus that of its direct children. The hottest calls, encode_state
(~1.8 M per synth_train unit) and net.forward, are only counted or summed,
so tracing does not swamp the trainer.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from qnav import dqn, env, evalkit, gateway, net, prompts, synthetic
from qnav.core import ActionKind

import stub as stub_model

STAGES = tuple(stage for stage, _ in stub_model.BLOCK_PHRASES) + ("terminate",)  # qnav's transcript labels
_PARSERS = ("parse_self_eval", "parse_subtasks", "parse_plans", "parse_plan_choice")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self.counts: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.chat_calls: list[tuple[float, float, int]] = []  # wall s, exchange latency s, output tokens
        self.actions: Counter[str] = Counter()
        self.in_flight: list[int] = []
        self._flying = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._episodes = itertools.count(1)
        self._local = threading.local()

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Record a span around fn; after(args, result) runs on success."""
        local, spans, ids = self._local, self.spans, self._ids

        def wrapper(*args, **kwargs):
            parent = getattr(local, "span", 0)
            sid = local.span = next(ids)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, name, start, time.perf_counter(), getattr(local, "episode", "")))
                local.span = parent
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts, lock = self.counts, self._lock

        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def busy_time(self, name, fn):
        """Count calls and sum their time, without a span."""
        counts, busy, lock = self.counts, self.busy, self._lock

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with lock:
                    busy[name] += elapsed
                    counts[name] += 1

        return wrapper

    def _begin_episode(self, tag: str) -> None:
        self._local.episode = f"{tag}#{next(self._episodes)}"
        self._local.last_prompt = None

    def _chat(self, fn):
        tracer, local = self, self._local

        def wrapper(backend, request):
            reprompt = request.prompt == getattr(local, "last_prompt", None)
            local.last_prompt = request.prompt
            with tracer._lock:
                tracer.counts[f"chat.{stub_model.classify(request.prompt)}"] += 1
                tracer.counts["reprompts"] += reprompt
                tracer._flying += 1
                tracer.in_flight.append(tracer._flying)
            start = time.perf_counter()
            try:
                exchange = fn(backend, request)
            except gateway.GatewayError:
                with tracer._lock:
                    tracer.counts["chat.failures"] += 1
                raise
            finally:
                with tracer._lock:
                    tracer._flying -= 1
            with tracer._lock:
                tracer.chat_calls.append(
                    (time.perf_counter() - start, exchange.latency_s, exchange.usage.output_tokens))
                tracer.counts["chat.retries"] += exchange.attempts - 1
            return exchange

        return self.span("gateway.chat", wrapper)

    def _env_step(self, args, result) -> None:
        episode, action = args[0], args[1]
        with self._lock:
            self.actions[ActionKind(action).name] += 1
            self.counts["env.step_failures"] += episode.failed

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced call site."""
        tracer = self

        def start_synthetic(fn):
            def wrapper(episode):
                tracer._begin_episode("synthetic")
                return fn(episode)
            return wrapper

        def start_reasoning(fn):
            def wrapper(episode):
                tracer._begin_episode(episode.question_id)
                return fn(episode)
            return tracer.span("env.reset", wrapper)

        def named(name):
            return lambda fn: tracer.span(name, fn)

        yield dqn, "train_step", named("dqn.train_step")
        yield dqn, "td_targets", named("dqn.td_targets")
        yield dqn, "select_action", named("dqn.select_action")
        yield dqn.ReplayBuffer, "sample", named("dqn.replay_sample")
        yield dqn.ReplayBuffer, "push", named("dqn.replay_push")
        yield net.DuelingNet, "forward_batch", named("net.forward_batch")
        yield net.DuelingNet, "backward_batch", named("net.backward_batch")
        yield net.Adam, "step", named("net.adam_step")
        yield net.DuelingNet, "forward", lambda fn: tracer.busy_time("net.forward", fn)
        for module in (dqn, evalkit, synthetic):
            yield module, "encode_state", lambda fn: tracer.count("core.encode_state", fn)
        yield synthetic.SyntheticEpisode, "reset", start_synthetic
        yield synthetic.SyntheticEpisode, "step", named("synthetic.env_step")
        yield env.ReasoningEpisode, "reset", start_reasoning
        yield env.ReasoningEpisode, "step", lambda fn: tracer.span("env.step", fn, tracer._env_step)
        yield gateway.OpenAIChatBackend, "complete", tracer._chat
        yield gateway.WirePrm, "score", named("gateway.prm")
        for name in dir(prompts):
            if name.startswith("render_"):
                yield prompts, name, lambda fn: tracer.busy_time("prompts.render", fn)
        yield evalkit, "render_mining", lambda fn: tracer.busy_time("prompts.render", fn)
        for name in _PARSERS:
            yield prompts, name, lambda fn: tracer.busy_time("prompts.parse", fn)
        for module in (env, evalkit):
            yield module, "extract_answer", lambda fn: tracer.busy_time("answers.extract", fn)
        yield evalkit, "majority_vote", lambda fn: tracer.busy_time("answers.vote", fn)
        yield evalkit, "run_episode", named("evalkit.episode")
        yield evalkit.NavigatorPolicy, "select", lambda fn: tracer.busy_time("evalkit.policy_select", fn)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines after a header naming the fields; times in us from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "episode", "start_us", "dur_us"]) + "\n")
            for sid, parent, name, start, end, episode in self.spans:
                fh.write(json.dumps([sid, parent, name, episode, round((start - origin) * 1e6, 1),
                                     round((end - start) * 1e6, 1)]) + "\n")

    def metrics(self, wall_s: float, stub_stats: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced unit that took wall_s."""
        durations: defaultdict[str, list[float]] = defaultdict(list)
        children: defaultdict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, _ in self.spans:
            durations[name].append(end - start)
            if parent:
                children[parent] += end - start
        self_times = [end - start - children[sid] for sid, _, name, start, end, _ in self.spans if name == "env.step"]

        def n(name):
            return len(durations[name])

        def mean_us(name):
            return statistics.fmean(durations[name]) * 1e6 if durations[name] else 0.0

        def total(name):
            return sum(durations[name])

        def per(a, b):
            return a / b if b else 0.0

        def pct(values, q):
            values = sorted(values)
            return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0

        updates = n("dqn.train_step")
        env_steps = n("synthetic.env_step") + n("env.step")
        episodes = n("env.reset")
        latencies = [c[0] for c in self.chat_calls]
        transport = [
            latency * 1000.0 - (stub_model.CHAT_FIXED_MS + stub_model.CHAT_PER_TOKEN_MS * tokens)
            for _, latency, tokens in self.chat_calls
        ]
        episode_s = durations["evalkit.episode"]
        m = {
            "dqn.train_step.us": (mean_us("dqn.train_step"), "us"),
            "dqn.td_targets.us": (mean_us("dqn.td_targets"), "us"),
            "dqn.replay_sample.us": (mean_us("dqn.replay_sample"), "us"),
            "dqn.replay_push.us": (mean_us("dqn.replay_push"), "us"),
            "dqn.select_action.us": (mean_us("dqn.select_action"), "us"),
            "dqn.train_step.busy_frac": (total("dqn.train_step") / wall_s, "frac"),
            "net.forward_batch.us": (mean_us("net.forward_batch"), "us"),
            "net.backward_batch.us": (mean_us("net.backward_batch"), "us"),
            "net.adam_step.us": (mean_us("net.adam_step"), "us"),
            "net.forward.us": (per(self.busy["net.forward"], self.counts["net.forward"]) * 1e6, "us"),
            "net.forward_batch_calls_per_update": (per(n("net.forward_batch"), updates), "calls/update"),
            "net.backward_batch_calls_per_update": (per(n("net.backward_batch"), updates), "calls/update"),
            "core.encode_state_calls_per_env_step": (per(self.counts["core.encode_state"], env_steps), "calls/step"),
            "synthetic.env_step.us": (mean_us("synthetic.env_step"), "us"),
            "gateway.chat.calls": (n("gateway.chat"), "count"),
            "gateway.chat.wait_s": (total("gateway.chat"), "s"),
            "gateway.chat.latency_p50_ms": (pct(latencies, 0.50) * 1e3, "ms"),
            "gateway.chat.latency_p95_ms": (pct(latencies, 0.95) * 1e3, "ms"),
            "gateway.chat.retries": (self.counts["chat.retries"], "count"),
            "gateway.chat.failures": (self.counts["chat.failures"], "count"),
            "gateway.chat.transport_ms": (statistics.median(transport) if transport else 0.0, "ms"),
            "gateway.chat.in_flight_mean": (statistics.fmean(self.in_flight) if self.in_flight else 0.0, "calls"),
            "gateway.chat.in_flight_max": (max(self.in_flight, default=0), "calls"),
            "gateway.prm.calls": (n("gateway.prm"), "count"),
            "gateway.prm.wait_s": (total("gateway.prm"), "s"),
            # WirePrm reports no attempts; the stub's 503s on /score are its retries.
            "gateway.prm.retries": (stub_stats.get("requests", {}).get("/score 503", 0), "count"),
            "env.step.us": (mean_us("env.step"), "us"),
            "env.step.self_us": (statistics.fmean(self_times) * 1e6 if self_times else 0.0, "us"),
            "env.reset.us": (mean_us("env.reset"), "us"),
        }
        for stage in STAGES:
            m[f"env.calls.{stage}"] = (per(self.counts[f"chat.{stage}"], episodes), "calls/episode")
        m["env.step_failures"] = (self.counts["env.step_failures"], "count")
        m["prompts.render.busy_s"] = (self.busy["prompts.render"], "s")
        m["prompts.parse.busy_s"] = (self.busy["prompts.parse"], "s")
        m["prompts.reprompts"] = (self.counts["reprompts"], "count")
        m["answers.extract.busy_s"] = (self.busy["answers.extract"], "s")
        m["answers.vote.us"] = (per(self.busy["answers.vote"], self.counts["answers.vote"]) * 1e6, "us")
        m["evalkit.episode_latency_p50_s"] = (pct(episode_s, 0.50), "s")
        m["evalkit.episode_latency_p95_s"] = (pct(episode_s, 0.95), "s")
        m["evalkit.policy_select.us"] = (
            per(self.busy["evalkit.policy_select"], self.counts["evalkit.policy_select"]) * 1e6, "us")
        m["evalkit.llm_wait_frac"] = ((total("gateway.chat") + total("gateway.prm")) / wall_s, "frac")
        return m

    def block_shares(self) -> dict[str, tuple[float, str]]:
        """Share of env steps per block: the policy's mix, with no better direction."""
        steps = sum(self.actions.values())
        return {f"env.block_share.{a.name}": (self.actions[a.name] / steps if steps else 0.0, "frac")
                for a in ActionKind}
