"""Property-based tests: SOAP value encoding and envelopes."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soap import (
    SOAP_ENV_NS,
    EncodingError,
    Envelope,
    SoapFault,
    element_to_value,
    value_to_element,
)
from repro.soap.encoding import _check_xml_text

# XML 1.0 cannot transport control characters, surrogates, or U+FFFE/FFFF;
# the encoder rejects them (see test_control_characters_rejected), so the
# round-trip strategies generate only transportable text.
xml_characters = st.characters(
    blacklist_categories=("Cs", "Cc"),
    blacklist_characters="￾￿",
)
xml_text = st.text(alphabet=xml_characters, max_size=40)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    xml_text,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(alphabet=xml_characters, min_size=1, max_size=10),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@given(value=values)
@settings(max_examples=150, deadline=None)
def test_value_roundtrips_through_element(value):
    assert element_to_value(value_to_element("v", value)) == value


@given(value=values)
@settings(max_examples=100, deadline=None)
def test_value_roundtrips_through_serialised_xml(value):
    xml = ET.tostring(value_to_element("v", value), encoding="unicode")
    assert element_to_value(ET.fromstring(xml)) == value


@given(
    operation=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=20,
    ),
    arguments=st.dictionaries(
        st.text(alphabet=xml_characters, min_size=1, max_size=10),
        scalars,
        max_size=4,
    ),
)
@settings(max_examples=80, deadline=None)
def test_call_envelope_roundtrips(operation, arguments):
    envelope = Envelope.call(operation, arguments)
    parsed = Envelope.from_xml(envelope.to_xml())
    assert parsed.kind == "call"
    assert parsed.operation == operation
    assert parsed.arguments == arguments


@given(value=values)
@settings(max_examples=80, deadline=None)
def test_result_envelope_roundtrips(value):
    parsed = Envelope.from_xml(Envelope.result("op", value).to_xml())
    assert parsed.value == value


def test_control_characters_rejected():
    with pytest.raises(EncodingError):
        value_to_element("v", "bad\x08string")
    with pytest.raises(EncodingError):
        value_to_element("v", {"bad\x00key": 1})


# -- byte identity with the tree encoder -------------------------------------------
#
# The envelope writer must emit exactly the bytes of the ElementTree encoder
# it replaced (kept below as the oracle), except that a carriage return in
# element text is written as ``&#13;`` instead of raw.

def _reference_value(tag, value):
    element = ET.Element(tag)
    if value is None:
        element.set("type", "null")
    elif isinstance(value, bool):
        element.set("type", "bool")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("type", "int")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("type", "float")
        element.text = repr(value)
    elif isinstance(value, str):
        element.set("type", "string")
        element.text = _check_xml_text(value, "string value")
    elif isinstance(value, (list, tuple)):
        element.set("type", "list")
        for entry in value:
            element.append(_reference_value("item", entry))
    elif isinstance(value, dict):
        element.set("type", "struct")
        for key in value:
            if not isinstance(key, str):
                raise EncodingError(f"struct keys must be strings, got {key!r}")
            member = _reference_value("member", value[key])
            member.set("name", _check_xml_text(key, "struct key"))
            element.append(member)
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")
    return element


def _reference_to_xml(envelope):
    ns = SOAP_ENV_NS
    ET.register_namespace("soapenv", ns)
    root = ET.Element(f"{{{ns}}}Envelope")
    if envelope.headers:
        header_el = ET.SubElement(root, f"{{{ns}}}Header")
        for name, value in sorted(envelope.headers.items()):
            entry = ET.SubElement(header_el, "header", {"name": name})
            entry.text = str(value)
    body = ET.SubElement(root, f"{{{ns}}}Body")
    if envelope.kind == "call":
        call_el = ET.SubElement(body, "call", {"operation": envelope.operation or ""})
        for name, value in envelope.arguments.items():
            argument = _reference_value("argument", value)
            argument.set("name", name)
            call_el.append(argument)
    elif envelope.kind == "result":
        result_el = ET.SubElement(body, "result", {"operation": envelope.operation or ""})
        result_el.append(_reference_value("return", envelope.value))
    else:
        fault = envelope.fault
        fault_el = ET.SubElement(body, f"{{{ns}}}Fault")
        ET.SubElement(fault_el, "faultcode").text = fault.faultcode
        ET.SubElement(fault_el, "faultstring").text = fault.faultstring
        if fault.faultactor:
            ET.SubElement(fault_el, "faultactor").text = fault.faultactor
        if fault.detail is not None:
            detail_el = ET.SubElement(fault_el, "detail")
            detail_el.append(_reference_value("value", fault.detail))
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def _outcome(encode, envelope):
    try:
        return encode(envelope)
    except EncodingError as error:
        return type(error), str(error)


def _assert_same_bytes(envelope):
    expected = _outcome(_reference_to_xml, envelope)
    if isinstance(expected, str):
        # The tree encoder leaves "\r" raw only in element text (attributes
        # already get "&#13;"); the writer escapes it there too.
        expected = expected.replace("\r", "&#13;")
    assert _outcome(Envelope.to_xml, envelope) == expected


# Everything XML can carry, weighted towards the characters that need escaping.
wire_characters = st.one_of(xml_characters, st.sampled_from("&<>\"'\t\n\r"))
wire_text = st.text(alphabet=wire_characters, max_size=12)
wire_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63),
        st.floats(),
        wire_text,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(wire_text, children, max_size=4),
    ),
    max_leaves=12,
)
headers = st.one_of(st.just({}), st.dictionaries(wire_text, wire_text, max_size=3))


def _envelopes(values):
    calls = st.builds(
        Envelope.call, wire_text, st.dictionaries(wire_text, values, max_size=4), headers
    )
    results = st.builds(
        lambda operation, value, extra: Envelope(
            kind="result", operation=operation, value=value, headers=extra
        ),
        wire_text,
        values,
        headers,
    )
    faults = st.builds(
        lambda fault, extra: Envelope(kind="fault", fault=fault, headers=extra),
        st.builds(
            SoapFault,
            wire_text,
            wire_text,
            st.one_of(st.none(), values),
            st.one_of(st.none(), wire_text),
        ),
        headers,
    )
    return st.one_of(calls, results, faults)


@given(envelope=_envelopes(wire_values))
@settings(max_examples=400, deadline=None)
def test_writer_matches_tree_encoder_bytes(envelope):
    _assert_same_bytes(envelope)


# Values the encoder must reject: XML-invalid strings, non-string struct
# keys and unencodable types, mixed in with good values.
bad_text = st.text(alphabet=wire_characters, max_size=4).flatmap(
    lambda good: st.sampled_from("\x00\x08\x0b\x1f\ufffe").map(lambda bad: good + bad)
)
bad_scalars = st.one_of(
    bad_text, st.builds(object), st.binary(max_size=2), st.sets(st.integers(), max_size=1)
)
invalid_values = st.recursive(
    st.one_of(wire_values, bad_scalars),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(
            st.one_of(wire_text, bad_text, st.integers(), st.none()), children, max_size=3
        ),
    ),
    max_leaves=8,
)


@given(envelope=_envelopes(invalid_values))
@settings(max_examples=300, deadline=None)
def test_writer_matches_tree_encoder_errors(envelope):
    _assert_same_bytes(envelope)


@pytest.mark.parametrize(
    "value",
    [
        {"bad\x00key": "bad\x08value"},
        {"bad\x00key": object()},
        {1: "bad\x08value"},
        {"ok": [1, {"bad\x0bkey": {2: None}}]},
        ["fine", b"bytes", "bad\x00"],
    ],
)
def test_first_error_matches_tree_encoder(value):
    for envelope in (
        Envelope.call("Op", {"arg": value}),
        Envelope.result("Op", value),
        Envelope.from_fault(SoapFault.server("boom", detail=value)),
    ):
        assert isinstance(_outcome(Envelope.to_xml, envelope), tuple)
        _assert_same_bytes(envelope)


@pytest.mark.parametrize(
    "envelope",
    [
        Envelope.call("Op", {"s": "", "l": [], "d": {}, "n": None}),
        Envelope.call("Op", {"flag": True, "one": 1, "zero": 0, "off": False}),
        Envelope.call("Op", {}, headers={"empty": "", "x": "a&b<c>\"d'\t\n"}),
        Envelope.result("Op", {"a": {"b": {"c": ["é", "中", "\U0001f600"]}}}),
        Envelope.result(None, 1.0),
        Envelope.from_fault(SoapFault("", "", detail={}, faultactor="")),
        Envelope.from_fault(SoapFault.server_busy("busy", retry_after=0.25)),
    ],
)
def test_writer_matches_tree_encoder_examples(envelope):
    _assert_same_bytes(envelope)


# -- carriage returns survive the wire ---------------------------------------------


@pytest.mark.parametrize("text", ["x\r\ny", "\r", "a\rb\r\n\r", "\r\n"])
def test_carriage_returns_roundtrip(text):
    value = {text: [text, {"k": text}]}
    parsed = Envelope.from_xml(
        Envelope.call("Op", {text: value}, headers={text: text}).to_xml()
    )
    assert parsed.arguments == {text: value}
    assert parsed.headers == {text: text}
    assert Envelope.from_xml(Envelope.result("Op", text).to_xml()).value == text
    fault = Envelope.from_xml(
        Envelope.from_fault(SoapFault(text, text, faultactor=text)).to_xml()
    ).fault
    assert (fault.faultcode, fault.faultstring, fault.faultactor) == (text, text, text)
    assert element_to_value(value_to_element("v", value)) == value


@given(value=st.recursive(
    wire_text,
    lambda children: st.dictionaries(wire_text, children, max_size=3),
    max_leaves=6,
))
@settings(max_examples=100, deadline=None)
def test_any_transportable_text_roundtrips(value):
    envelope = Envelope.call("Op", {"v": value})
    assert Envelope.from_xml(envelope.to_xml()).arguments == {"v": value}
