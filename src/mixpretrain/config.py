"""Run configuration: one INI file describes corpus, tasks, mixture,
model, and training for a single run, and a `RunConfig` is its sections, so
a new key is one `_SCHEMA` line.  The raw file bytes are echoed into the run
directory so every experiment carries its exact provenance."""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass

from .corpus import ConfigError, check_synth_args, read_input
from .mixture import MixtureSpec, ScheduleConfig
from .model import MIN_VOCAB_SIZE, ModelConfig
from .tasksynth import EASY, KIND_NAMES, SynthConfig, TaskKind

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
        "weights": ("floats", []),  # empty -> equal weights over kinds
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
    """The TaskKinds named by ``names``; an unknown or repeated name is a
    ConfigError."""
    for i, name in enumerate(names):
        if name not in KIND_NAMES:
            raise ConfigError(f"unknown {what} {name!r}")
        if name in names[:i]:
            raise ConfigError(f"repeated {what} {name!r}")
    return [TaskKind(n) for n in names]


@dataclass
class RunConfig:
    """A parsed run config: one dict per `_SCHEMA` section, key -> value.
    Build it with `parse_run_config` or `load_run_config`, which share one
    gate: a config that comes out of either is one the run accepts."""

    run: dict
    corpus: dict
    tasks: dict
    mixture: dict
    schedule: dict
    model: dict
    train: dict
    source_text: str  # exact INI text this config was parsed from

    # read-only shortcuts to the keys most readers want
    seed = property(lambda self: self.run["seed"])
    out = property(lambda self: self.run["out"])
    eval_split = property(lambda self: self.run["eval_split"])
    weights = property(lambda self: self.mixture["weights"])

    @property
    def kinds(self):
        return list(self.tasks["kinds"])

    @property
    def image_size(self):
        return self.corpus["grid"] * self.corpus["cell"]

    def sections(self):
        """section -> key -> value, in schema order."""
        return {sec: getattr(self, sec) for sec in _SCHEMA}

    # the only place where config keys become the typed configs of a run

    def synth_config(self, policy):
        t = self.tasks
        return SynthConfig(seed=self.seed, mlm_mask_rate=t["mlm_mask_rate"],
                           mlm_mean_span=t["mlm_mean_span"],
                           yes_no_balance=t["yes_no_balance"], policy=policy)

    def model_config(self, vocab_size):
        return ModelConfig(vocab_size=vocab_size, image_size=self.image_size, **self.model)

    def mixture_spec(self):
        if self.weights:
            return MixtureSpec(self.kinds, self.weights)
        return MixtureSpec.equal(self.kinds)

    def schedule_config(self):
        return ScheduleConfig(seed=self.seed, **self.schedule)


def changed_keys(old, new):
    """The ``[section] key`` names whose values differ between two
    RunConfigs, in schema order."""
    return [f"[{sec}] {key}" for sec in _SCHEMA for key in _SCHEMA[sec]
            if getattr(old, sec)[key] != getattr(new, sec)[key]]


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
            return raw.replace(",", " ").split()
        if tag == "floats":
            return [float(p) for p in raw.replace(",", " ").split()]
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {tag}") from None


def parse_run_config(text):
    """The RunConfig of INI ``text`` that was not read from a file."""
    return _parse(text, "<string>")


def _parse(text, source):
    """The RunConfig of INI ``text``; an INI syntax error names ``source``."""
    # no interpolation: a path may hold a literal "%"; no header can name the
    # default section "", so [DEFAULT] is an unknown section, not copied keys
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                       default_section="")
    try:
        parser.read_string(text, source)
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

    cfg = RunConfig(**values, source_text=text)
    _validate(cfg)
    return cfg


def _validate(cfg):
    """Checks of keys no typed config covers, then one run of each check a
    typed config or the corpus synthesis makes, which cover the rest.  Every
    error names its section."""
    c = cfg.corpus
    if not (0.0 <= cfg.eval_split < 1.0):
        raise ConfigError("[run] eval_split must be in [0, 1)")
    if not (0.0 < cfg.train["lr"] < math.inf):
        raise ConfigError(f"[train] lr must be finite and above 0, got {cfg.train['lr']}")
    if c["source"] not in ("synth", "dir"):
        raise ConfigError(f"[corpus] source must be synth or dir, got {c['source']!r}")
    if c["source"] == "dir" and not c["dir"]:
        raise ConfigError("[corpus] source = dir requires a dir path")
    if not cfg.kinds:
        raise ConfigError("[tasks] kinds must name at least one task kind")
    for section, keys in _SCHEMA.items():
        for key, (tag, _) in keys.items():
            value = getattr(cfg, section)[key]
            lo = 0 if (section, key) in _NON_NEGATIVE_INTS else 1
            if tag == "int" and value < lo:
                raise ConfigError(f"[{section}] {key} must be >= {lo}, got {value}")
    for section, build in (("corpus", lambda: check_synth_args(c["n_images"], c["grid"],
                                                               c["hidden_rate"])),
                           ("tasks", lambda: parse_kinds(cfg.kinds)),
                           ("train", lambda: parse_kinds(cfg.train["eval_kinds"], "eval kind")),
                           ("tasks", lambda: cfg.synth_config(cfg.tasks["policy"])),
                           ("model", lambda: cfg.model_config(MIN_VOCAB_SIZE)),
                           ("mixture", cfg.mixture_spec),
                           ("schedule", cfg.schedule_config)):
        try:
            build()
        except ValueError as e:
            raise ConfigError(f"[{section}] {e}") from None


def load_run_config(path):
    try:
        text = read_input(path, lambda f: f.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return _parse(text, path)


def render_config(cfg):
    """INI text for a RunConfig, in schema layout."""
    parser = configparser.ConfigParser(interpolation=None)
    for sec, keys in cfg.sections().items():
        parser[sec] = {}
        for k, v in keys.items():
            parser[sec][k] = " ".join(str(x) for x in v) if isinstance(v, list) else str(v)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def derive_config(cfg, **sections):
    """``cfg`` with the given keys of each section replaced (``run={"seed":
    1}``), rendered and parsed again: a derived config passes the same gate
    as a file, echoes its own text, and holds every value it was given."""
    wanted = dataclasses.replace(cfg, **{sec: {**getattr(cfg, sec), **keys}
                                         for sec, keys in sections.items()})
    derived = parse_run_config(render_config(wanted))
    lost = changed_keys(wanted, derived)
    if lost:
        raise ConfigError(f"{', '.join(lost)}: value does not survive the config text "
                          "(' #' and ' ;' start a comment, outer spaces are dropped)")
    return derived


def default_config_text(out="runs/demo", seed=0):
    return derive_config(parse_run_config(""), run={"seed": seed, "out": out}).source_text
