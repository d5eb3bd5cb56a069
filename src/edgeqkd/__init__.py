"""QKD-keyed transparent encryption for edge request/response workloads."""

from .channel import (
    SUITES,
    CipherSuite,
    EncryptedEnvelope,
    RefreshPolicy,
    SecurityContext,
    decrypt,
    encrypt,
    encrypt_response,
    establish_context,
    negotiate,
    should_refresh,
)
from .clock import SimulatedClock, SystemClock
from .control import AppContext, AppInfo, Catalog, CatalogEntry, HostDescriptor, Lcmp, Meo, place_app
from .errors import EdgeQkdError
from .gateway import Gateway, RouteBinding
from .harness import RunMetrics, RunResult, ScenarioConfig, run_scenario, wiretap_assert
from .host import BUILTIN_HANDLERS, MecHost
from .kme import EntropyPool, new_kme_pair

__version__ = "0.1.0"

__all__ = [
    "AppContext",
    "AppInfo",
    "BUILTIN_HANDLERS",
    "Catalog",
    "CatalogEntry",
    "CipherSuite",
    "EdgeQkdError",
    "EncryptedEnvelope",
    "EntropyPool",
    "Gateway",
    "HostDescriptor",
    "Lcmp",
    "MecHost",
    "Meo",
    "RefreshPolicy",
    "RouteBinding",
    "RunMetrics",
    "RunResult",
    "SUITES",
    "ScenarioConfig",
    "SecurityContext",
    "SimulatedClock",
    "SystemClock",
    "decrypt",
    "encrypt",
    "encrypt_response",
    "establish_context",
    "negotiate",
    "new_kme_pair",
    "place_app",
    "run_scenario",
    "should_refresh",
    "wiretap_assert",
    "__version__",
]
