"""Tests for SOAP client-side retries (datagram-loss recovery)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.soap import RequestTimeout, SoapClient, SoapServer


@pytest.fixture
def deployment(env, network, two_hosts):
    server_node, client_node = two_hosts
    server = SoapServer(server_node, port=80)
    calls = {"count": 0}

    def dispatcher(operation, arguments, headers):
        calls["count"] += 1
        return calls["count"]

    server.mount("/svc", dispatcher)
    client = SoapClient(client_node, default_timeout=0.5)
    return server, client, client_node, calls


def _call(env, node, client, retries, timeout=0.5):
    outcome = {}

    def caller():
        try:
            outcome["value"] = yield from client.call(
                ("a", 80), "/svc", "op", {}, timeout=timeout, retries=retries
            )
        except RequestTimeout as error:
            outcome["error"] = error

    env.run(until=node.spawn(caller()))
    return outcome


class TestRetries:
    def test_retry_recovers_from_lost_request(self, env, network, deployment):
        _server, client, client_node, calls = deployment
        network.loss_rate = 1.0  # first attempt is lost

        def heal():
            # Heal just before the first 0.5s attempt times out, so the
            # retry goes out over a healthy network.
            yield env.timeout(0.45)
            network.loss_rate = 0.0

        client_node.spawn(heal())
        outcome = _call(env, client_node, client, retries=2)
        assert "value" in outcome
        assert client.timeouts == 1  # one lost attempt, then success

    def test_no_retries_by_default(self, env, network, deployment):
        _server, client, client_node, _calls = deployment
        network.loss_rate = 1.0
        outcome = _call(env, client_node, client, retries=0)
        assert isinstance(outcome["error"], RequestTimeout)
        assert client.timeouts == 1

    def test_retries_exhausted_raises(self, env, network, deployment):
        _server, client, client_node, _calls = deployment
        network.loss_rate = 1.0
        outcome = _call(env, client_node, client, retries=3)
        assert isinstance(outcome["error"], RequestTimeout)
        assert client.timeouts == 4  # initial attempt + 3 retries

    def test_retry_can_double_execute(self, env, network, deployment):
        """Retries are at-least-once: if only the *response* is lost, the
        server executes twice.  (Whisper's operations are reads, but the
        semantics are worth pinning down.)"""
        server, client, client_node, calls = deployment
        outcome = _call(env, client_node, client, retries=1)
        first_count = calls["count"]
        assert first_count == 1
        assert outcome["value"] == 1


class TestRttStamps:
    def test_final_timeout_drops_the_stamp(self, env, network, deployment):
        _server, client, client_node, _calls = deployment
        network.loss_rate = 1.0
        for _ in range(3):
            outcome = _call(env, client_node, client, retries=1)
            assert isinstance(outcome["error"], RequestTimeout)
        assert network.trace._pending_rtt == {}
        assert network.trace.rtt_samples == []

    def test_stamps_get_distinct_sequential_ids(self, env, network, deployment):
        _server, client, client_node, _calls = deployment
        network.trace.stamp_request(2, 0.0)  # a caller-chosen id stays untouched
        for _ in range(3):
            assert "value" in _call(env, client_node, client, retries=0)
        ids = [sample.correlation_id for sample in network.trace.rtt_samples]
        assert ids == [1, 3, 4]
        assert list(network.trace._pending_rtt) == [2]


_RTT_SCRIPT = """
from repro.simnet import Environment, MessageTrace, Network, RngRegistry
from repro.soap import SoapClient, SoapServer

env = Environment()
network = Network(env, trace=MessageTrace(), rng=RngRegistry(3))
server_node, client_node = network.add_host("server"), network.add_host("client")
SoapServer(server_node).mount("/svc", lambda operation, arguments, headers: 1)
client = SoapClient(client_node)

def caller():
    for _ in range(3):
        yield from client.call(("server", 80), "/svc", "op", {})

env.run(until=client_node.spawn(caller()))
print(network.trace.rtts_to_csv(), end="")
"""


def test_rtt_csv_is_independent_of_hash_seed():
    """String hashing is salted per process; RTT ids must not depend on it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-c", _RTT_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
    rows = outputs.pop().splitlines()
    assert [row.split(",")[0] for row in rows] == ["correlation_id", "1", "2", "3"]
