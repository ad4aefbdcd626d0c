"""Encoding Python values as XML text and decoding element trees back.

SOAP bodies carry structured values.  We use a small self-describing
encoding: every element gets a ``type`` attribute (string, int, float,
bool, null, struct, list) so round-tripping is loss-free without needing a
schema at the decoding side.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Any, Optional

__all__ = [
    "EncodingError",
    "element_to_value",
    "encode_value",
    "value_to_element",
    "xml_attribute",
    "xml_text",
]


class EncodingError(Exception):
    """Raised when a value cannot be encoded or decoded."""


#: Characters XML 1.0 cannot carry (anywhere — text or attributes).
_XML_INVALID = re.compile(
    "[^\x09\x0a\x0d\x20-퟿-�\U00010000-\U0010ffff]"
)


def _check_xml_text(text: str, what: str) -> str:
    """Reject strings XML 1.0 cannot transport (e.g. control characters).

    SOAP is an XML protocol: such strings cannot appear on the wire, so we
    fail loudly at encode time instead of producing an unparseable message.
    """
    match = _XML_INVALID.search(text)
    if match is not None:
        raise EncodingError(
            f"{what} contains an XML-invalid character {match.group()!r} "
            f"at index {match.start()}"
        )
    return text


def xml_text(text: str, what: str) -> str:
    """Check ``text`` and escape it as element content.

    ElementTree's escaping (``& < >``) plus ``\\r`` as ``&#13;``: a raw
    carriage return would be normalised away by the parser on decode.
    """
    _check_xml_text(text, what)
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    return text


def xml_attribute(text: str, what: str) -> str:
    """Check ``text`` and escape it as an attribute value, as ElementTree does."""
    text = xml_text(text, what)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def encode_value(
    tag: str, value: Any, name: Optional[str] = None, what: str = "struct key"
) -> str:
    """Encode ``value`` as the XML text of an element named ``tag``.

    ``name``, when given, becomes a ``name`` attribute after ``type``; it
    is checked (and reported as ``what``) only once the value has encoded,
    so a bad value wins over a bad name.
    """
    if value is None:
        kind, content = "null", ""
    elif isinstance(value, bool):
        kind, content = "bool", "true" if value else "false"
    elif isinstance(value, int):
        kind, content = "int", str(value)
    elif isinstance(value, float):
        kind, content = "float", repr(value)
    elif isinstance(value, str):
        kind, content = "string", xml_text(value, "string value")
    elif isinstance(value, (list, tuple)):
        kind = "list"
        content = "".join([encode_value("item", entry) for entry in value])
    elif isinstance(value, dict):
        kind = "struct"
        members = []
        for key in value:
            if not isinstance(key, str):
                raise EncodingError(f"struct keys must be strings, got {key!r}")
            members.append(encode_value("member", value[key], key))
        content = "".join(members)
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")
    if name is None:
        start = f'<{tag} type="{kind}"'
    else:
        start = f'<{tag} type="{kind}" name="{xml_attribute(name, what)}"'
    if content:
        return f"{start}>{content}</{tag}>"
    return f"{start} />"


def value_to_element(tag: str, value: Any) -> ET.Element:
    """Encode ``value`` into an element named ``tag``."""
    return ET.fromstring(encode_value(tag, value))


def element_to_value(element: ET.Element) -> Any:
    """Decode an element produced by :func:`value_to_element`."""
    kind = element.get("type", "string")
    if kind == "null":
        return None
    if kind == "bool":
        return element.text == "true"
    if kind == "int":
        try:
            return int(element.text or "0")
        except ValueError as error:
            raise EncodingError(f"bad int payload {element.text!r}") from error
    if kind == "float":
        try:
            return float(element.text or "0")
        except ValueError as error:
            raise EncodingError(f"bad float payload {element.text!r}") from error
    if kind == "string":
        return element.text or ""
    if kind == "list":
        return [element_to_value(child) for child in element]
    if kind == "struct":
        result = {}
        for child in element:
            name = child.get("name")
            if name is None:
                raise EncodingError("struct member lacks a name")
            result[name] = element_to_value(child)
        return result
    raise EncodingError(f"unknown encoded type {kind!r}")
