"""Integration tests: SoapClient against SoapServer."""

import pytest

from repro.soap import RequestTimeout, SoapClient, SoapFault, SoapServer


@pytest.fixture
def deployment(env, network, two_hosts):
    server_node, client_node = two_hosts
    server = SoapServer(server_node, port=80)

    def dispatcher(operation, arguments, headers):
        if operation == "add":
            return arguments["a"] + arguments["b"]
        if operation == "echo-headers":
            return dict(headers)
        if operation == "slow":
            yield env.timeout(float(arguments["delay"]))
            return "done"
        if operation == "fail-client":
            raise SoapFault.client("bad arguments", detail={"why": "test"})
        if operation == "unencodable-result":
            return {"text": "nul\x00byte"}
        if operation == "unencodable-fault":
            raise SoapFault.server("bad\x00x")
        raise RuntimeError("unexpected operation")

    server.mount("/svc", dispatcher)
    client = SoapClient(client_node, default_timeout=2.0)
    return server, client, server_node, client_node


def _call(env, node, client, *args, **kwargs):
    outcome = {}

    def caller():
        try:
            outcome["value"] = yield from client.call(*args, **kwargs)
        except (SoapFault, RequestTimeout) as error:
            outcome["error"] = error

    env.run(until=node.spawn(caller()))
    return outcome


class TestCalls:
    def test_successful_call(self, env, deployment):
        server, client, _s, client_node = deployment
        outcome = _call(env, client_node, client, ("a", 80), "/svc", "add", {"a": 2, "b": 3})
        assert outcome["value"] == 5
        assert client.calls_sent == 1
        assert server.calls_handled == 1

    def test_headers_reach_dispatcher(self, env, deployment):
        _server, client, _s, client_node = deployment
        outcome = _call(
            env, client_node, client, ("a", 80), "/svc", "echo-headers", {},
            headers={"tenant": "acme"},
        )
        assert outcome["value"]["tenant"] == "acme"

    def test_generator_dispatcher(self, env, deployment):
        _server, client, _s, client_node = deployment
        outcome = _call(
            env, client_node, client, ("a", 80), "/svc", "slow", {"delay": "0.1"}
        )
        assert outcome["value"] == "done"
        assert env.now >= 0.1

    def test_rtt_recorded_on_trace(self, env, network, deployment):
        _server, client, _s, client_node = deployment
        _call(env, client_node, client, ("a", 80), "/svc", "add", {"a": 1, "b": 1})
        rtts = network.trace.rtts()
        assert len(rtts) == 1
        assert 0 < rtts[0] < 0.01


class TestFaults:
    def test_explicit_fault_propagates(self, env, deployment):
        server, client, _s, client_node = deployment
        outcome = _call(env, client_node, client, ("a", 80), "/svc", "fail-client", {})
        fault = outcome["error"]
        assert isinstance(fault, SoapFault)
        assert fault.faultcode == "Client"
        assert fault.detail == {"why": "test"}
        assert client.faults_received == 1
        assert server.faults_returned == 1

    def test_dispatcher_bug_becomes_server_fault(self, env, deployment):
        _server, client, _s, client_node = deployment
        outcome = _call(env, client_node, client, ("a", 80), "/svc", "unknown-op", {})
        assert outcome["error"].faultcode == "Server"
        assert "RuntimeError" in outcome["error"].faultstring


    @pytest.mark.parametrize(
        "operation, field",
        [("unencodable-result", "string value"), ("unencodable-fault", "faultstring")],
    )
    def test_unencodable_reply_becomes_parseable_server_fault(
        self, env, deployment, operation, field
    ):
        server, client, _s, client_node = deployment
        outcome = _call(env, client_node, client, ("a", 80), "/svc", operation, {})
        fault = outcome["error"]
        assert isinstance(fault, SoapFault)
        assert fault.faultcode == "Server"
        assert fault.faultstring.startswith("EncodingError: ")
        assert f"{field} contains an XML-invalid character '\\x00'" in fault.faultstring
        assert client.faults_received == 1
        assert (server.calls_handled, server.faults_returned) == (0, 1)


class TestSystemFailures:
    def test_crashed_server_is_silent_not_faulting(self, env, deployment):
        """§1: system failures produce no <soap:fault> — only a timeout."""
        _server, client, server_node, client_node = deployment
        server_node.crash()
        outcome = _call(
            env, client_node, client, ("a", 80), "/svc", "add", {"a": 1, "b": 1},
            timeout=0.5,
        )
        assert isinstance(outcome["error"], RequestTimeout)
        assert client.timeouts == 1

    def test_crash_mid_request_is_silent(self, env, deployment):
        _server, client, server_node, client_node = deployment

        def crasher():
            yield env.timeout(0.05)
            server_node.crash()

        client_node.spawn(crasher())
        outcome = _call(
            env, client_node, client, ("a", 80), "/svc", "slow", {"delay": "0.2"},
            timeout=0.5,
        )
        assert isinstance(outcome["error"], RequestTimeout)
