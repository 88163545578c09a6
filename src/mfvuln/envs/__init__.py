from .base import MeanFieldEnv, Snapshot, StepResult, agent_layout, build_config
from .taxi import TaxiConfig, TaxiGridEnv
from .toy import ToyConfig, ToyMeanFieldEnv
from .vicsek import VicsekConfig, VicsekEnv, order_parameter

from ..errors import InvalidConfigError

# env_name -> (its config class, its env class)
ENV_CLASSES = {
    "vicsek": (VicsekConfig, VicsekEnv),
    "taxi": (TaxiConfig, TaxiGridEnv),
    "toy": (ToyConfig, ToyMeanFieldEnv),
}


def make_env(raw: dict) -> MeanFieldEnv:
    """Build an environment from a plain config mapping (strict keys)."""
    name = raw.get("env_name")
    if not isinstance(name, str) or name not in ENV_CLASSES:
        raise InvalidConfigError(f"unknown env_name: {name!r}")
    config_cls, env_cls = ENV_CLASSES[name]
    return env_cls(build_config(config_cls, raw))
