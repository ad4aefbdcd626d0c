"""Unit tests for SOAP envelopes and faults."""

import xml.etree.ElementTree as ET

import pytest

from repro.soap import EncodingError, Envelope, EnvelopeError, FaultCode, SoapFault


class TestCallEnvelope:
    def test_roundtrip(self):
        envelope = Envelope.call(
            "StudentInformation", {"ID": "S00001"}, headers={"trace": "t1"}
        )
        parsed = Envelope.from_xml(envelope.to_xml())
        assert parsed.kind == "call"
        assert parsed.operation == "StudentInformation"
        assert parsed.arguments == {"ID": "S00001"}
        assert parsed.headers == {"trace": "t1"}

    def test_empty_arguments(self):
        parsed = Envelope.from_xml(Envelope.call("Ping").to_xml())
        assert parsed.arguments == {}

    def test_complex_arguments(self):
        arguments = {"filter": {"ids": ["a", "b"], "limit": 5}, "flag": True}
        parsed = Envelope.from_xml(Envelope.call("Query", arguments).to_xml())
        assert parsed.arguments == arguments


class TestResultEnvelope:
    def test_roundtrip(self):
        value = {"studentId": "S1", "courses": ["M101"]}
        parsed = Envelope.from_xml(Envelope.result("Op", value).to_xml())
        assert parsed.kind == "result"
        assert parsed.value == value
        assert not parsed.is_fault
        parsed.raise_if_fault()  # no-op

    def test_none_result(self):
        parsed = Envelope.from_xml(Envelope.result("Op", None).to_xml())
        assert parsed.value is None


class TestFaultEnvelope:
    def test_roundtrip(self):
        fault = SoapFault(FaultCode.CLIENT, "bad input", detail={"field": "ID"},
                          faultactor="urn:svc")
        parsed = Envelope.from_xml(Envelope.from_fault(fault).to_xml())
        assert parsed.is_fault
        assert parsed.fault.faultcode == "Client"
        assert parsed.fault.faultstring == "bad input"
        assert parsed.fault.detail == {"field": "ID"}
        assert parsed.fault.faultactor == "urn:svc"

    def test_raise_if_fault(self):
        parsed = Envelope.from_xml(
            Envelope.from_fault(SoapFault.server("down")).to_xml()
        )
        with pytest.raises(SoapFault, match="down"):
            parsed.raise_if_fault()

    def test_fault_constructors(self):
        assert SoapFault.client("x").faultcode == FaultCode.CLIENT
        assert SoapFault.server("x").faultcode == FaultCode.SERVER


class TestErrors:
    def test_malformed_xml(self):
        with pytest.raises(EnvelopeError):
            Envelope.from_xml("<oops")

    def test_wrong_root(self):
        with pytest.raises(EnvelopeError):
            Envelope.from_xml("<html/>")

    def test_empty_body(self):
        xml = (
            '<soapenv:Envelope xmlns:soapenv='
            '"http://schemas.xmlsoap.org/soap/envelope/">'
            "<soapenv:Body/></soapenv:Envelope>"
        )
        with pytest.raises(EnvelopeError):
            Envelope.from_xml(xml)

    def test_size_bytes_positive_and_grows(self):
        small = Envelope.call("Op", {"a": 1})
        big = Envelope.call("Op", {"a": "x" * 10000})
        assert 0 < small.size_bytes() < big.size_bytes()


BAD = "bad\x00x"


class TestEveryFieldChecked:
    """Each text and attribute the writer emits rejects XML-invalid input."""

    @pytest.mark.parametrize(
        "envelope, field",
        [
            (Envelope.call(BAD), "operation name"),
            (Envelope.result(BAD, 1), "operation name"),
            (Envelope.call("Op", {BAD: 1}), "argument name"),
            (Envelope.call("Op", headers={BAD: "v"}), "header name"),
            (Envelope.call("Op", headers={"h": BAD}), "header value"),
            (Envelope.from_fault(SoapFault(BAD, "s")), "faultcode"),
            (Envelope.from_fault(SoapFault.server(BAD)), "faultstring"),
            (Envelope.from_fault(SoapFault("c", "s", faultactor=BAD)), "faultactor"),
            (Envelope.call("Op", {"a": BAD}), "string value"),
            (Envelope.result("Op", {BAD: 1}), "struct key"),
        ],
    )
    def test_invalid_character_raises(self, envelope, field):
        with pytest.raises(
            EncodingError,
            match=f"^{field} contains an XML-invalid character '\\\\x00' at index 3$",
        ):
            envelope.to_xml()


class TestWriterCost:
    """Encoding builds no element tree and touches no global ET state."""

    def test_no_elementtree_calls_while_encoding(self, monkeypatch):
        calls = []
        for name in ("Element", "SubElement", "tostring", "register_namespace"):
            original = getattr(ET, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(ET, name, counted)
        value = {"ids": ["a", "b"], "nested": {"n": 1, "x": 2.5, "ok": True}}
        envelopes = [
            Envelope.call("Op", {"filter": value}, headers={"trace": "t1"}),
            Envelope.result("Op", value),
            Envelope.from_fault(SoapFault("Client", "bad", value, faultactor="urn:s")),
        ]
        for envelope in envelopes:
            envelope.to_xml()
            envelope.size_bytes()
        assert calls == []
