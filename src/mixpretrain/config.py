"""Run configuration: one INI file describes corpus, tasks, mixture,
model, and training for a single run.  The raw file bytes are echoed into
the run directory so every experiment carries its exact provenance."""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, asdict

from .corpus import ConfigError
from .tasksynth import EASY, HARD, KIND_NAMES, TaskKind

# section -> key -> (type tag, default).  Unknown keys are config errors:
# silently ignoring a typo like "n_layer" would corrupt an ablation.
_SCHEMA = {
    "run": {
        "seed": ("int", 0),
        "out": ("str", "runs/run"),
        "eval_split": ("float", 0.2),
    },
    "corpus": {
        "source": ("str", "synth"),  # "synth" or "dir"
        "dir": ("str", ""),
        "n_images": ("int", 120),
        "grid": ("int", 3),
        "cell": ("int", 8),
        "hidden_rate": ("float", 0.0),
    },
    "tasks": {
        "kinds": ("list", KIND_NAMES),
        "policy": ("str", EASY),
        "count_per_kind": ("int", 400),
        "mlm_mask_rate": ("float", 0.15),
        "mlm_mean_span": ("float", 3.0),
        "yes_no_balance": ("float", 0.5),
    },
    "mixture": {
        "weights": ("list", []),  # empty -> equal weights over kinds
    },
    "schedule": {
        "total_steps": ("int", 300),
        "batch_size": ("int", 8),
    },
    "model": {
        "d_model": ("int", 64),
        "n_heads": ("int", 4),
        "n_encoder_layers": ("int", 2),
        "n_decoder_layers": ("int", 2),
        "d_ff": ("int", 256),
        "patch": ("int", 8),
        "max_prompt": ("int", 32),
        "max_target": ("int", 16),
    },
    "train": {
        "lr": ("float", 3e-3),
        "checkpoint_every": ("int", 0),
        "eval_kinds": ("list", []),  # empty -> same kinds as training
        "eval_count_per_kind": ("int", 40),
        "eval_batch": ("int", 64),
    },
}

# every other int key must be at least 1
_NON_NEGATIVE_INTS = {("run", "seed"), ("train", "checkpoint_every")}


def parse_kinds(names, what="task kind"):
    """The TaskKinds named by ``names``; an unknown name is a ConfigError."""
    unknown = [n for n in names if n not in KIND_NAMES]
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}")
    return [TaskKind(n) for n in names]


@dataclass
class RunConfig:
    seed: int = 0
    out: str = "runs/run"
    eval_split: float = 0.2
    corpus: dict = field(default_factory=dict)
    tasks: dict = field(default_factory=dict)
    weights: list = field(default_factory=list)
    schedule: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    source_text: str = ""  # exact INI text this config was parsed from

    @property
    def kinds(self):
        return list(self.tasks["kinds"])

    @property
    def image_size(self):
        return self.corpus["grid"] * self.corpus["cell"]

    def to_dict(self):
        d = asdict(self)
        d.pop("source_text")
        return d


def _sections(cfg):
    """section -> key -> value of a RunConfig, in schema layout."""
    return {
        "run": {"seed": cfg.seed, "out": cfg.out, "eval_split": cfg.eval_split},
        "corpus": cfg.corpus,
        "tasks": cfg.tasks,
        "mixture": {"weights": cfg.weights},
        "schedule": cfg.schedule,
        "model": cfg.model,
        "train": cfg.train,
    }


def _defaults():
    return {sec: {k: v for k, (_, v) in keys.items()} for sec, keys in _SCHEMA.items()}


def _coerce(section, key, raw):
    tag, _ = _SCHEMA[section][key]
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "list":
            return [p.strip() for p in raw.replace(",", " ").split() if p.strip()]
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {tag}") from None


def parse_run_config(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"bad config file: {e}") from None

    values = _defaults()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _coerce(section, key, raw)

    cfg = RunConfig(
        seed=values["run"]["seed"],
        out=values["run"]["out"],
        eval_split=values["run"]["eval_split"],
        corpus=values["corpus"],
        tasks=values["tasks"],
        weights=[float(w) for w in values["mixture"]["weights"]],
        schedule=values["schedule"],
        model=values["model"],
        train=values["train"],
        source_text=text,
    )
    _validate(cfg)
    return cfg


def _validate(cfg):
    if not (0.0 <= cfg.eval_split < 1.0):
        raise ConfigError("eval_split must be in [0, 1)")
    if cfg.corpus["source"] not in ("synth", "dir"):
        raise ConfigError(f"corpus source must be synth or dir, got {cfg.corpus['source']!r}")
    if cfg.corpus["source"] == "dir" and not cfg.corpus["dir"]:
        raise ConfigError("corpus source=dir requires a dir path")
    sections = _sections(cfg)
    for section, keys in _SCHEMA.items():
        for key, (tag, _) in keys.items():
            value = sections[section][key]
            lo = 0 if (section, key) in _NON_NEGATIVE_INTS else 1
            if tag == "int" and value < lo:
                raise ConfigError(f"[{section}] {key} must be >= {lo}, got {value}")
    parse_kinds(cfg.kinds)
    if not cfg.kinds:
        raise ConfigError("at least one task kind required")
    if len(set(cfg.kinds)) != len(cfg.kinds):
        raise ConfigError("duplicate task kinds")
    if cfg.tasks["policy"] not in (EASY, HARD):
        raise ConfigError(f"policy must be {EASY} or {HARD}")
    parse_kinds(cfg.train["eval_kinds"], "eval kind")
    if cfg.weights and len(cfg.weights) != len(cfg.kinds):
        raise ConfigError("mixture weights must match task kinds in length")
    if cfg.corpus["source"] == "synth" and cfg.image_size % cfg.model["patch"] != 0:
        raise ConfigError(
            f"image size {cfg.image_size} (grid*cell) not divisible by patch {cfg.model['patch']}"
        )


def load_run_config(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_run_config(text)


def render_config(cfg):
    """INI text for a RunConfig; used when no source file exists to echo."""
    parser = configparser.ConfigParser()
    for sec, keys in _sections(cfg).items():
        parser[sec] = {}
        for k, v in keys.items():
            parser[sec][k] = " ".join(str(x) for x in v) if isinstance(v, list) else str(v)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def default_config_text(out="runs/demo", seed=0):
    cfg = RunConfig()
    cfg.corpus = _defaults()["corpus"]
    cfg.tasks = _defaults()["tasks"]
    cfg.schedule = _defaults()["schedule"]
    cfg.model = _defaults()["model"]
    cfg.train = _defaults()["train"]
    cfg.out = out
    cfg.seed = seed
    return render_config(cfg)
