"""Campaign-as-a-service: the ``repro serve`` daemon and its client.

The ROADMAP's architecture step toward many concurrent clients: a
long-running asyncio HTTP/JSON service that validates campaign specs
(:mod:`repro.serve.spec`), dedups them through a config-hash result
cache (:mod:`repro.serve.cache`), queues them onto one persistent warm
:class:`~repro.parallel.CampaignRunner` pool (:mod:`repro.serve.jobs` —
amortizing pool startup, the fix for pooled campaigns running slower
than serial ones on small runners), and streams heartbeat progress over
long-poll (:mod:`repro.serve.app`).  :mod:`repro.serve.client`
is the stdlib client behind ``repro submit``.
"""

from repro.serve.app import ReproServer
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import Job, JobQueue
from repro.serve.spec import CampaignSpec, parse_spec

__all__ = [
    "ReproServer",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "Job",
    "JobQueue",
    "CampaignSpec",
    "parse_spec",
]
