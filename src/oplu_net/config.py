"""Experiment configuration.

Configs are flat `key = value` text files; any key can also be overridden
on the command line as `--key value`. Unknown keys are errors in both
places. Defaults carry the hyperparameters the experiments are defined
with, so `--show-config` documents a run completely.
"""

import math
import os
import re

from .activations import check_activation_name
from .errors import ConfigError
from .linalg import INIT_KINDS


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Field: (type constructor, default).
SCHEMAS = {
    "mnist": {
        "activation": (str, "relu"),
        "init": (str, "auto"),
        "alpha": (float, 0.01),
        "mu": (float, 0.9),
        "batch_size": (int, 64),
        "epochs": (int, 5),
        "repeats": (int, 1),
        "hidden": (int, 300),
        "seed": (int, 1),
        "data_dir": (str, ""),
        "train_images": (str, "train-images-idx3-ubyte"),
        "train_labels": (str, "train-labels-idx1-ubyte"),
        "test_images": (str, "t10k-images-idx3-ubyte"),
        "test_labels": (str, "t10k-labels-idx1-ubyte"),
        "out_dir": (str, "runs/mnist"),
    },
    "adding": {
        "activation": (str, "oplu"),
        "init": (str, "auto"),
        "alpha": (float, 0.0001),
        "mu": (float, 0.9),
        "batch_size": (int, 20),
        "epochs": (int, 500),
        "iterations_per_epoch": (int, 50),
        "seq_len": (int, 30),
        "horizon": (int, 0),
        "hidden": (int, 100),
        "train_n": (int, 20000),
        "valid_n": (int, 1000),
        "test_n": (int, 10000),
        "threshold": (float, 0.04),
        "paper_scale": (_bool, False),
        "seed": (int, 1),
        "out_dir": (str, "runs/adding"),
    },
    "grad-diag": {
        "activation": (str, "oplu"),
        "init": (str, "auto"),
        "hidden": (int, 100),
        "input_dim": (int, 2),
        "horizon": (int, 100),
        "repeats": (int, 100),
        "seed": (int, 1),
        "out_dir": (str, "runs/grad-diag"),
    },
}

INIT_CHOICES = ("auto",) + INIT_KINDS


def default_config(kind: str) -> dict:
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return {key: default for key, (_, default) in SCHEMAS[kind].items()}


# a '#' at the start of a line or after whitespace; one inside a value stays
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_file(path) -> dict:
    """Read flat `key = value` lines of UTF-8 text as {key: (value, "path:line")}.

    A '#' starts a comment when it begins the line or follows whitespace,
    so `alpha = 0.01  # step` sets 0.01 while `out_dir = runs/#1` keeps its
    '#'. A file that cannot be read is a ConfigError.
    """
    raw = {}
    try:
        # bytes that are not UTF-8 decode to lone surrogates, which encode() rejects
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            for line_no, line in enumerate(f, start=1):
                where = f"{path}:{line_no}"
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ConfigError(f"{where}: line is not UTF-8 text") from None
                stripped = _COMMENT.split(line, 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{where}: expected 'key = value', got {line.rstrip()!r}")
                key, value = stripped.split("=", 1)
                raw[key.strip()] = value.strip(), where
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    return raw


def apply_settings(kind: str, cfg: dict, raw: dict) -> dict:
    """Set cfg from raw, which maps each key to its (text, where) pair."""
    schema = SCHEMAS[kind]
    for key, (text, where) in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} in {where}")
        ctor = schema[key][0]
        try:
            cfg[key] = ctor(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in {where}: {exc}") from None
    return cfg


def validate_config(kind: str, cfg: dict) -> dict:
    if cfg.get("init", "auto") not in INIT_CHOICES:
        raise ConfigError(f"init must be one of {INIT_CHOICES}, got {cfg.get('init')!r}")
    # float() accepts "nan" and "inf", which pass every range test below
    for key, (ctor, _) in SCHEMAS[kind].items():
        if ctor is float and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    for key in ("alpha", "mu", "batch_size", "epochs", "repeats", "hidden", "input_dim", "seq_len",
                "iterations_per_epoch", "horizon", "train_n", "valid_n", "test_n", "threshold"):
        if key in cfg:
            value = cfg[key]
            if key == "mu":
                if not 0 <= value < 1:
                    raise ConfigError(f"mu must lie in [0, 1), got {value}")
            elif key in ("epochs", "horizon"):
                if value < 0:
                    raise ConfigError(f"{key} must be >= 0, got {value}")
            elif value <= 0:
                raise ConfigError(f"{key} must be positive, got {value}")
    if kind == "adding" and cfg["seq_len"] < 2:
        raise ConfigError(f"seq_len must be >= 2, got {cfg['seq_len']}")
    # 0 means "seq_len" for adding; grad-diag has no sequence length to fall back on
    if kind == "grad-diag" and cfg["horizon"] < 1:
        raise ConfigError(f"horizon must be >= 1, got {cfg['horizon']}")
    try:
        check_activation_name(cfg["activation"], cfg["hidden"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(kind: str, config_path=None, overrides=None) -> dict:
    cfg = default_config(kind)
    explicit = set()
    if config_path is not None:
        raw = parse_config_file(config_path)
        apply_settings(kind, cfg, raw)
        explicit.update(raw)
    if overrides:
        apply_settings(kind, cfg, {key: (text, "command line") for key, text in overrides.items()})
        explicit.update(overrides)
    if kind == "adding" and cfg["paper_scale"] and "epochs" not in explicit:
        cfg["epochs"] = 5000 if cfg["seq_len"] >= 100 else 2000
    return validate_config(kind, cfg)


def format_config(kind: str, cfg: dict) -> str:
    """Render the effective config in schema order as `key = value` lines."""
    lines = []
    for key in SCHEMAS[kind]:
        value = cfg[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines)


def resolve_init(kind_of_experiment: str, cfg: dict) -> str:
    """The 'auto' policy: image runs use xavier; sequence runs give the
    pairwise unit orthogonal weights and everything else xavier."""
    init = cfg.get("init", "auto")
    if init != "auto":
        return init
    if kind_of_experiment == "mnist":
        return "xavier"
    return "orthogonal" if cfg["activation"] == "oplu" else "xavier"


def resolve_data_dir(cfg: dict) -> str:
    if cfg.get("data_dir"):
        return cfg["data_dir"]
    return os.environ.get("OPLU_DATA_DIR", ".")
