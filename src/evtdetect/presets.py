"""Named architecture presets for the datasets the models were sized for.

Each preset carries the recurrent layer sizes, dropout, learning rate, and
window geometry. Look-back values for the taxi-demand and heartbeat presets
are package defaults; the remaining fields follow the published sizing.
"""
from __future__ import annotations

from .checks import ConfigError

PRESETS: dict[str, dict] = {
    "travel-time": {
        "hidden_sizes": (20,), "dropout_rate": 0.2, "learning_rate": 0.01,
        "look_back": 1, "look_ahead": 1,
    },
    "vehicular-speed": {
        "hidden_sizes": (60,), "dropout_rate": 0.19, "learning_rate": 1e-4,
        "look_back": 1, "look_ahead": 1,
    },
    "vehicle-occupancy": {
        "hidden_sizes": (50,), "dropout_rate": 0.23, "learning_rate": 1e-4,
        "look_back": 1, "look_ahead": 1,
    },
    "nyc-taxi": {
        "hidden_sizes": (50, 20), "dropout_rate": 0.4, "learning_rate": 1e-4,
        "look_back": 48, "look_ahead": 24,
    },
    "bengaluru-taxi": {
        "hidden_sizes": (20, 10), "dropout_rate": 0.25, "learning_rate": 1e-4,
        "look_back": 48, "look_ahead": 24,
    },
    "ecg": {
        "hidden_sizes": (60, 30), "dropout_rate": 0.1, "learning_rate": 0.05,
        "look_back": 40, "look_ahead": 5,
    },
    "bitcoin": {
        "hidden_sizes": (10,), "dropout_rate": 0.1, "learning_rate": 1e-4,
        "look_back": 1, "look_ahead": 1,
    },
}


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return dict(PRESETS[name])
