"""Resilient resume through an address whose backend changes.

The fleet frontend's failover path from the client's side: the client
holds one (host, port) address, the serving *process* behind it dies
mid-session, and a different process starts answering on the same
address.  The checkpoint-carrying resume must land the session on the
replacement with nothing lost — every served column ``np.array_equal``
to the offline compute of the uninterrupted trace.
"""

import asyncio

import numpy as np

from repro.core.tracking import compute_spectrogram
from repro.serve import SensingServer, ServeConfig
from repro.serve.resilient import BackoffPolicy, ResilientServeClient
from repro.serve.session import config_from_wire

from tests.helpers import synthetic_trace

FAST = {"window_size": 64, "hop": 16, "subarray_size": 24}


class TestBackendFailover:
    def test_resume_onto_replacement_server_matches_offline(self, rng):
        pushes, block_size = 10, 200
        trace = synthetic_trace(rng, pushes * block_size)
        expected = compute_spectrogram(trace, config_from_wire(FAST)).power

        async def run():
            server_a = SensingServer(ServeConfig(port=0))
            port = await server_a.start()
            replacement = None
            client = ResilientServeClient(
                "127.0.0.1",
                port,
                session_config=FAST,
                backoff=BackoffPolicy(max_attempts=20),
            )
            try:
                await client.start()
                for push in range(pushes):
                    if push == 4:
                        # The original backend dies; a fresh process
                        # (no session table, no tracker state) takes
                        # over the same address.
                        await server_a.shutdown()
                        replacement = SensingServer(ServeConfig(port=port))
                        await replacement.start()
                    block = trace[
                        push * block_size : (push + 1) * block_size
                    ]
                    await client.push(block)
                await client.close_session()
            finally:
                await client.aclose()
                if replacement is not None:
                    await replacement.shutdown()
                await server_a.shutdown()
            return client

        client = asyncio.run(run())
        assert client.stats.reconnects >= 1
        assert client.stats.resumes >= 1
        served = client.served_columns()
        assert len(served) == len(expected)
        assert np.array_equal(np.stack([c.power for c in served]), expected)
