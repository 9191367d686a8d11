"""Command-line front end: mine-hard, train, eval, synth-train, inspect.

Values resolve as flags over config file over defaults. _resolve reads each
command's settings and the config sections SECTIONS declares for it, checking
required inputs and seeds in one place; _record writes those settings and
sections to resolved_config.json in the output directory, so a run can be
reproduced from that file alone. Exit codes: 0 success, 2 config or usage
error, 3 data error (datasets, checkpoints, files), 4 gateway error or a run
in which nothing succeeded, 5 verification failure (synth-train below
threshold). Every artifact is written with core.atomic_write, so a crash
leaves the old file or the new one, never a truncated one.
"""

from __future__ import annotations

import argparse
import collections.abc
import dataclasses
import inspect
import json
import logging
import sys
import time
import types
import typing
from pathlib import Path

from . import dqn, evalkit, synthetic
from .core import ActionKind, atomic_write
from .env import EnvConfig, ReasoningEpisode, episodes_in_flight
from .gateway import (
    ChatBackend,
    GatewayError,
    OpenAIChatBackend,
    PrmBackend,
    PrmWireConfig,
    ScriptedChatBackend,
    ScriptedPrm,
    UsageLog,
    WireConfig,
    WirePrm,
    pooled_session,
)
from .net import CheckpointError, DuelingNet, load_checkpoint, save_checkpoint

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_GATEWAY = 4
EXIT_VERIFY = 5

CHECKPOINT_EVERY = 500


class ConfigError(Exception):
    """Bad or inconsistent configuration."""


# Each command's top-level settings, each with its default, or with its type
# where it has none. A flag of the same name overrides the file value.
SETTINGS = {
    "mine-hard": dict(dataset=str, seed=0, out_dir=str),
    "train": dict(hard_set=str, seed=0, out_dir=str),
    "eval": dict(dataset=str, policy="nav", checkpoint=str, trials=3, seed=0, out_dir=str),
    "synth-train": dict(states=8, sharpness=0.7, mdp_seed=0, threshold=0.95, min_pass=int, seeds="0", out_dir=str),
}

# Settings a command cannot run without, and settings that seed numpy's generator.
REQUIRED = ("dataset", "hard_set")
SEEDS = ("seed", "mdp_seed")

POLICIES = ("nav", "fixed-sequence", "random")

# The config sections each command reads. A command takes the flags of its
# sections: each sets the section key of the same name.
SECTIONS = {
    "mine-hard": ("gateway",),
    "train": ("gateway", "prm", "env", "trainer"),
    "eval": ("gateway", "prm", "env"),
    "synth-train": ("trainer",),
}
SECTION_FLAGS = {"gateway": dict(base_url=str, model=str, api_key_env=str), "trainer": dict(episodes=int)}

HELP = {
    "dataset": "JSONL dataset",
    "hard_set": "JSONL hard set from mine-hard",
    "checkpoint": "navigator checkpoint (for --policy nav)",
    "seeds": "comma-separated trainer seeds",
    "out_dir": "artifact directory (default: runs/<stamp>-seed<seed>)",
}


def _load_config_file(path: str | None) -> dict:
    """The config file's JSON object; a top-level key no command reads is a ConfigError."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {"command"}.union(*SECTIONS.values(), *SETTINGS.values())
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")
    return doc


def _section(args, file_cfg: dict, name: str) -> dict:
    """The config file's section name, with the flags that set its keys applied."""
    section = file_cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    section = dict(section)
    for key in SECTION_FLAGS.get(name, ()):
        if getattr(args, key) is not None:
            section[key] = getattr(args, key)
            # A flag naming the chat endpoint or its model means the wire gateway.
            if key in ("base_url", "model"):
                section.setdefault("backend", "openai")
    return section


def _coerce(hint, value, name: str):
    """value as a parameter of type hint; name labels errors in nested objects.

    JSON values map onto int, float and str, and a boolean is no number; a
    union takes the first arm that fits; a tuple or sequence is a list; a
    frozenset is a list of ActionKind names; any other class is an object
    read by _from_section.
    """
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        errors = []
        for arm in typing.get_args(hint):
            try:
                return _coerce(arm, value, name)
            except (TypeError, ValueError) as exc:
                errors.append(str(exc))
        raise ValueError(" or ".join(errors))
    if origin is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list) or len(value) != len(args):
            raise ValueError(f"expected a list of {len(args)} values")
        return tuple(_coerce(arg, v, name) for arg, v in zip(args, value))
    if origin is collections.abc.Sequence:
        if not isinstance(value, list):
            raise ValueError("expected a list")
        (arg,) = typing.get_args(hint)
        return [_coerce(arg, v, f"{name}[{i}]") for i, v in enumerate(value)]
    if origin is frozenset:
        if not isinstance(value, list):
            raise ValueError("expected a list of action names")
        try:
            return frozenset(ActionKind[action] for action in value)
        except KeyError as exc:
            raise ValueError(f"unknown action name {exc.args[0]!r}") from None
    if hint is str:
        if not isinstance(value, str):
            raise ValueError("expected a string")
        return value
    if hint in (int, float) and isinstance(value, bool):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    if hint is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value}")
    if hint in (int, float):
        return hint(value)
    if not isinstance(value, dict):
        raise ValueError("expected an object")
    return _from_section(hint, value, name)


def _from_section(cls, section: dict, name: str, **fixed):
    """cls built from a JSON object, each value coerced to its constructor parameter's type.

    fixed sets parameters the section may not. A key that is not a settable
    parameter, a value that does not coerce, a missing required parameter and
    a value cls rejects are each a ConfigError naming the section.
    """
    params = inspect.signature(cls).parameters
    hints = typing.get_type_hints(cls.__init__)
    kwargs = dict(fixed)
    for key, value in section.items():
        if key not in params or key in fixed:
            raise ConfigError(f"{name}.{key}: unknown key")
        try:
            kwargs[key] = _coerce(hints[key], value, f"{name}.{key}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from exc
    for key, param in params.items():
        if key not in kwargs and param.default is param.empty:
            raise ConfigError(f"{name} config missing {key!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _to_section(cfg, *omit: str) -> dict:
    """JSON section for config dataclass cfg; the inverse of _from_section."""
    section = {}
    for f in dataclasses.fields(cfg):
        if f.name in omit:
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, frozenset):
            value = sorted(a.name for a in value)
        section[f.name] = value
    return section


def _setting_type(default) -> type:
    return default if isinstance(default, type) else type(default)


def _settings(args, file_cfg: dict) -> dict:
    """args.command's SETTINGS, each resolved as its flag, else its file value, else its default.

    A null file value counts as unset. A file value is coerced to the
    default's type; a setting declared by its type alone resolves to None
    when unset. A negative seed and an unset required input are ConfigErrors.
    """
    settings = {}
    for key, default in SETTINGS[args.command].items():
        value = getattr(args, key)
        if value is None and file_cfg.get(key) is not None:
            try:
                value = _coerce(_setting_type(default), file_cfg[key], key)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        if value is None and not isinstance(default, type):
            value = default
        settings[key] = value
    for key in SEEDS:
        if key in settings:
            _check_seed(settings[key], key)
    for key in REQUIRED:
        if key in settings and settings[key] is None:
            raise ConfigError(f"{args.command} needs --{key.replace('_', '-')}")
    return settings


def _resolve(args, file_cfg: dict) -> tuple[dict, dict]:
    """(settings, sections): args.command's settings and each config section SECTIONS names, flags applied."""
    return _settings(args, file_cfg), {name: _section(args, file_cfg, name) for name in SECTIONS[args.command]}


def _check_seed(seed: int, key: str) -> int:
    # numpy.random.default_rng rejects negative seeds.
    if seed < 0:
        raise ConfigError(f"{key}: must not be negative, got {seed}")
    return seed


def _write(path: Path, data: str | bytes) -> None:
    """Write an artifact, making its directory first, so a run stopped before its first artifact leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def _write_json(path: Path, doc: dict) -> None:
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _record(out: Path, command: str, settings: dict, sections: dict, **built) -> None:
    """Write resolved_config.json: the command, its settings and its sections.

    built maps a section's name to the config dataclass the command built from
    it, recorded in its place without a seed; other sections are recorded as given.
    """
    doc = {"command": command, **settings}
    for name, section in sections.items():
        doc[name] = _to_section(built[name], "seed") if name in built else section
    _write_json(out / "resolved_config.json", doc)


def _read_checkpoint(path: str) -> tuple[DuelingNet, dict]:
    """(net, meta) from the checkpoint file at path; an unreadable file is a CheckpointError."""
    try:
        payload = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    return load_checkpoint(payload)


def _out_dir(settings: dict, seed: int) -> Path:
    """The artifact directory, which settings["out_dir"] then records."""
    if settings["out_dir"] is not None:
        out = Path(settings["out_dir"])
    else:
        out = Path("runs") / f"{time.strftime('%Y%m%d-%H%M%S')}-seed{seed}"
    settings["out_dir"] = str(out)
    return out


def build_chat_backend(cfg: dict) -> ChatBackend:
    """The chat backend a gateway config section describes."""
    kind = cfg.get("backend", "openai")
    fields = {k: v for k, v in cfg.items() if k != "backend"}
    if kind == "scripted":
        return _from_section(ScriptedChatBackend, fields, "gateway")
    if kind == "openai":
        return OpenAIChatBackend(_from_section(WireConfig, fields, "gateway"))
    raise ConfigError(f"unknown gateway backend {kind!r}")


def build_prm_backend(cfg: dict, chat: ChatBackend) -> PrmBackend:
    """The process reward model a prm config section describes, for episodes over chat.

    Each of the episodes_in_flight(chat) episodes or trials in flight scores
    at most once at a time, so a wire client pools that many connections.
    """
    kind = cfg.get("backend", "scripted")
    fields = {k: v for k, v in cfg.items() if k != "backend"}
    if kind == "scripted":
        return _from_section(ScriptedPrm, fields, "prm")
    if kind == "wire":
        return WirePrm(_from_section(PrmWireConfig, fields, "prm"), pooled_session(episodes_in_flight(chat)))
    raise ConfigError(f"unknown prm backend {kind!r}")


# -- commands -------------------------------------------------------------------


def _nothing_done(what: str, out: Path) -> int:
    """Exit code for a run in which nothing succeeded; its artifacts stay as the evidence."""
    print(f"gateway error: {what}; artifacts in {out}", file=sys.stderr)
    return EXIT_GATEWAY


def cmd_mine_hard(args) -> int:
    settings, sections = _resolve(args, _load_config_file(args.config))
    out = _out_dir(settings, settings["seed"])
    chat = build_chat_backend(sections["gateway"])

    dataset = evalkit.load_dataset(settings["dataset"])
    usage = UsageLog()
    result = evalkit.mine_hard(dataset, chat, usage_log=usage)

    out.mkdir(parents=True, exist_ok=True)
    evalkit.save_dataset(result.hard, out / "hard_set.jsonl")
    _write_json(out / "mining_summary.json", {
        "total": result.total,
        "hard": len(result.hard),
        "proportion": result.proportion,
        "undetermined": list(result.undetermined),
        "usage": dataclasses.asdict(usage.totals()),
    })
    _record(out, args.command, settings, sections)
    if result.total and len(result.undetermined) == result.total:
        return _nothing_done(f"all {result.total} questions undetermined", out)
    print(f"kept {len(result.hard)} of {result.total} questions "
          f"({100.0 * result.proportion:.2f}% hard, {len(result.undetermined)} undetermined)")
    print(f"artifacts in {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    settings, sections = _resolve(args, _load_config_file(args.config))
    if not sections["prm"]:
        raise ConfigError("prm: train needs a prm section, the source of its rewards")
    seed = settings["seed"]
    hard_path = settings["hard_set"]
    out = _out_dir(settings, seed)
    chat = build_chat_backend(sections["gateway"])
    prm = build_prm_backend(sections["prm"], chat)
    env_cfg = _from_section(EnvConfig, sections["env"], "env")
    trainer_cfg = _from_section(dqn.TrainerConfig, sections["trainer"], "trainer", seed=seed)

    questions = evalkit.load_dataset(hard_path)
    if not questions:
        raise evalkit.DatasetError(f"{hard_path}: hard set is empty")
    usage = UsageLog()

    def env_factory(rng):
        record = questions[rng.randrange(len(questions))]
        return ReasoningEpisode(
            problem=record.question, kind=record.kind, chat=chat, prm=prm,
            cfg=env_cfg, question_id=record.id, usage_log=usage,
        )

    stepped = False

    def snapshot(stats: dqn.EpisodeStats, net) -> None:
        # A net no episode has stepped is the untrained one: nothing to checkpoint.
        nonlocal stepped
        stepped = stepped or stats.steps > 0
        n = stats.episode + 1
        if stepped and n % CHECKPOINT_EVERY == 0:
            payload = save_checkpoint(net, seed=seed, episodes=n)
            _write(out / f"checkpoint_ep{n:05d}.json", payload)

    net, stats = dqn.run_training(env_factory, trainer_cfg, on_episode=snapshot)

    if stepped:
        _write(out / "checkpoint_final.json", save_checkpoint(net, seed=seed, episodes=trainer_cfg.episodes))
    _write(out / "reward_curve.tsv", dqn.stats_table(stats))
    _write_json(out / "usage.json", {**dataclasses.asdict(usage.totals()), "calls": usage.calls})
    _record(out, args.command, settings, sections, env=env_cfg, trainer=trainer_cfg)
    if not stepped:
        return _nothing_done(f"no episode of {trainer_cfg.episodes} took a step, so no checkpoint_final.json", out)
    mean_return = sum(s.episode_return for s in stats) / len(stats)
    print(f"trained {trainer_cfg.episodes} episodes (seed {seed}); mean return {mean_return:.4f}")
    print(f"artifacts in {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    settings, sections = _resolve(args, _load_config_file(args.config))
    seed = settings["seed"]
    policy_name = settings["policy"]
    checkpoint_path = settings["checkpoint"]
    out = _out_dir(settings, seed)
    chat = build_chat_backend(sections["gateway"])
    prm = build_prm_backend(sections["prm"], chat)
    env_cfg = _from_section(EnvConfig, sections["env"], "env")
    try:
        cfg = evalkit.EvalConfig(trials=settings["trials"], seed=seed, env=env_cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if policy_name not in POLICIES:
        raise ConfigError(f"unknown policy {policy_name!r}")
    if policy_name == "nav":
        if checkpoint_path is None:
            raise ConfigError("--policy nav needs --checkpoint")
        net, _meta = _read_checkpoint(checkpoint_path)
        policy = evalkit.NavigatorPolicy(net)
    elif policy_name == "fixed-sequence":
        policy = evalkit.FixedSequencePolicy()
    else:
        policy = evalkit.RandomPolicy(seed)

    dataset = evalkit.load_dataset(settings["dataset"])
    # Scripted backends take no time, so a fully scripted run zeroes wall times to repeat byte for byte.
    offline = isinstance(chat, ScriptedChatBackend) and isinstance(prm, ScriptedPrm)
    report = evalkit.evaluate(policy, dataset, chat, prm, cfg, offline=offline)

    _write_json(out / "report.json", report.to_jsonable())
    _record(out, args.command, settings, sections, env=env_cfg)
    if report.total and report.failed_trials == report.total * cfg.trials:
        return _nothing_done(f"all {report.failed_trials} trials failed", out)
    print(f"accuracy {report.correct}/{report.total} = {report.accuracy:.4f}")
    print(f"artifacts in {out}")
    return EXIT_OK


def cmd_synth_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    # Another command's resolved_config.json records that command's own seed.
    if file_cfg.get("seed") is not None and file_cfg.get("command", args.command) == args.command:
        raise ConfigError("seed: synth-train takes its trainer seeds as seeds (comma-separated)")
    settings, sections = _resolve(args, file_cfg)
    try:
        seeds = [_check_seed(int(s), "seeds") for s in settings["seeds"].split(",") if s != ""]
    except ValueError as exc:
        raise ConfigError(f"seeds: {exc}") from exc
    if not seeds:
        raise ConfigError("need at least one seed")
    settings["seeds"] = ",".join(str(s) for s in seeds)
    try:
        mdp = synthetic.make_scripted(n_states=settings["states"], sharpness=settings["sharpness"],
                                      seed=settings["mdp_seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    threshold = settings["threshold"]
    if settings["min_pass"] is None:
        settings["min_pass"] = len(seeds) - 1 if len(seeds) > 1 else 1
    min_pass = settings["min_pass"]
    out = _out_dir(settings, seeds[0])

    trainer_cfgs = [_from_section(dqn.TrainerConfig, sections["trainer"], "trainer", seed=s) for s in seeds]
    results = []
    passed = 0
    for s, trainer_cfg in zip(seeds, trainer_cfgs):
        oracle = synthetic.optimal_return(mdp, trainer_cfg.gamma)
        net, stats = dqn.run_training(synthetic.make_env_factory(mdp), trainer_cfg)
        achieved = synthetic.greedy_return(mdp, net, trainer_cfg.gamma)
        ratio = achieved / oracle.value if oracle.value else 0.0
        ok = ratio >= threshold
        passed += int(ok)
        _write(out / f"reward_curve_seed{s}.tsv", dqn.stats_table(stats))
        results.append({
            "seed": s,
            "optimal_return": oracle.value,
            "greedy_return": achieved,
            "ratio": ratio,
            "pass": ok,
        })
        print(f"seed {s}: optimal {oracle.value:.4f} greedy {achieved:.4f} "
              f"ratio {ratio:.4f} {'PASS' if ok else 'FAIL'}")

    verdict = passed >= min_pass
    summary = dict(settings, passed=passed, verdict=verdict, seeds=results)
    del summary["out_dir"]
    _write_json(out / "synth_results.json", summary)
    _record(out, args.command, settings, sections, trainer=trainer_cfgs[0])
    print(f"{passed}/{len(seeds)} seeds passed (need {min_pass}): "
          f"{'PASS' if verdict else 'FAIL'}")
    print(f"artifacts in {out}")
    return EXIT_OK if verdict else EXIT_VERIFY


def cmd_inspect(args) -> int:
    net, meta = _read_checkpoint(args.checkpoint)
    print(f"widths: {net.widths[0]}x{net.widths[1]}")
    print(f"parameters: {net.num_parameters}")
    print(f"episodes: {meta['episodes']}")
    print(f"seed: {meta['seed']}")
    return EXIT_OK


# -- wiring ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnav",
        description="Train and evaluate a tiny Q-network that steers LLM reasoning blocks.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "mine-hard": (cmd_mine_hard, "keep questions a direct prompt answers wrongly"),
        "train": (cmd_train, "train the navigator on a hard set"),
        "eval": (cmd_eval, "evaluate a policy with self-consistency voting"),
        "synth-train": (cmd_synth_train, "prove the trainer on the synthetic MDP"),
    }
    # No abbreviations: --seed would silently mean --seeds, --data --dataset.
    for command, (func, summary) in commands.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        flags = dict(SETTINGS[command])
        for section in SECTIONS[command]:
            flags.update(SECTION_FLAGS.get(section, {}))
        for key, default in flags.items():
            p.add_argument("--" + key.replace("_", "-"), type=_setting_type(default),
                           choices=POLICIES if key == "policy" else None, help=HELP.get(key))
        p.set_defaults(func=func)

    p = sub.add_parser("inspect", help="describe a checkpoint", allow_abbrev=False)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (evalkit.DatasetError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return EXIT_GATEWAY


if __name__ == "__main__":
    sys.exit(main())
