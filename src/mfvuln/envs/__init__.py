from .base import MeanFieldEnv, Snapshot, StepResult, agent_layout, build_config
from .taxi import TaxiConfig, TaxiGridEnv, make_taxi
from .toy import ToyConfig, ToyMeanFieldEnv, make_toy
from .vicsek import VicsekConfig, VicsekEnv, make_vicsek, order_parameter

from ..errors import InvalidConfigError

ENV_BUILDERS = {
    "vicsek": make_vicsek,
    "taxi": make_taxi,
    "toy": make_toy,
}


def make_env(raw: dict) -> MeanFieldEnv:
    """Build an environment from a plain config mapping (strict keys)."""
    name = raw.get("env_name")
    if not isinstance(name, str) or name not in ENV_BUILDERS:
        raise InvalidConfigError(f"unknown env_name: {name!r}")
    return ENV_BUILDERS[name](raw)
