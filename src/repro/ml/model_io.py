"""Serialisation helpers for the ML models (JSON files on disk)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from ..errors import ConfigurationError
from .decision_tree import DecisionTreeRegressor

__all__ = ["model_to_dict", "model_from_dict", "save_model", "load_model"]

_MODEL_KINDS = {"decision_tree": DecisionTreeRegressor}


def model_to_dict(model: DecisionTreeRegressor) -> Dict[str, Any]:
    """Serialise a fitted model to a JSON-friendly dictionary."""
    return model.to_dict()


def model_from_dict(payload: Dict[str, Any]):
    """Rebuild a model from :func:`model_to_dict` output."""
    kind = payload.get("kind")
    try:
        cls = _MODEL_KINDS[kind]
    except KeyError as exc:
        raise ConfigurationError(f"unknown model kind {kind!r}") from exc
    return cls.from_dict(payload)


def save_model(model, path: Union[str, Path]) -> Path:
    """Write a model to ``path`` as JSON and return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(model_to_dict(model)), encoding="utf-8")
    return target


def load_model(path: Union[str, Path]):
    """Load a model previously written by :func:`save_model`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return model_from_dict(payload)
