"""wirebeam: beam-tracking on a swaying suspended wire.

Library layers, bottom to top:

- wire:       pinned mass-spring chain with wind drag and stochastic kicks
- radio:      phased-array transmit gain and the free-space link budget
- env:        the two-agent beam-tracking decision process
- deepq:      numpy dueling Q-networks, replay memory, Adam, Huber loss
- rarl:       adversarial training loop, probes, and baseline policies
- checkpoint: versioned binary container for trained agents
- config:     flat key-value config files with reference defaults
- bench:      CLI entry point (train / eval / sweep / antenna-pattern / simulate)
"""

__version__ = "0.1.0"

from .checkpoint import AgentCheckpoint, load_checkpoint, save_checkpoint
from .config import ConfigError, SweepSpec, load_config, load_sweep_spec, serialize_train_config
from .deepq import (
    AdamState,
    NumericError,
    QNetwork,
    ReplayMemory,
    act_epsilon_greedy,
    forward,
    huber,
    init_qnetwork,
    loss_and_gradients,
    sync_target,
    train_batch,
)
from .env import (
    AdversaryAction,
    BeamState,
    BeamTrackingEnv,
    EnvConfig,
    EpisodeFinishedError,
    ProtagonistAction,
    adversary_wind,
    apply_protagonist_action,
    reward_from_power,
)
from .radio import (
    AoD,
    AntennaConfig,
    LinkBudget,
    aod_geometry,
    array_factor,
    element_pattern,
    received_power,
    tx_gain,
)
from .rarl import (
    EpisodeRecord,
    ObsNormalizer,
    Policy,
    PolicyKind,
    TrainConfig,
    TrainResult,
    check_adversary,
    check_protagonist,
    make_normalizer,
    rollout,
    run_policy,
    train,
)
from .wire import (
    PhysParams,
    SimulationDivergedError,
    WireState,
    env_wind,
    equilibrium_shape,
    mechanical_energy,
)
