"""``json.dumps``/``json.loads`` for JSON nested deeper than the recursion limit.

A tree model nests one JSON object per tree level, and the standard
library's encoder and decoder recurse once per level of nesting, so a deep
enough tree could be neither saved nor loaded. ``dumps`` and ``loads`` call
the standard library and, when it runs out of recursion depth, fall back on
loops with their own stacks that leave every scalar to it. The fallback
writes exactly the text of ``json.dumps`` with default settings for dicts
with str keys, lists, tuples and scalars, and reads what ``json.loads``
reads. It is about ten times slower, hence only a fallback.
"""

from __future__ import annotations

import json
import re

_WS = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


class _Text(str):
    """Output text, as opposed to a value still to encode."""


def dumps(obj) -> str:
    try:
        return json.dumps(obj)
    except RecursionError:
        return _dumps(obj)


def loads(s: str):
    try:
        return json.loads(s)
    except RecursionError:
        return _loads(s)


def _dumps(obj) -> str:
    out, todo = [], [obj]
    while todo:
        o = todo.pop()
        if isinstance(o, _Text):
            out.append(o)
        elif isinstance(o, dict) and o:
            if not all(isinstance(k, str) for k in o):
                raise TypeError("keys must be str")
            todo.append(_Text("}"))
            for i, (k, v) in reversed(list(enumerate(o.items()))):
                todo += (v, _Text(("{" if i == 0 else ", ") + json.dumps(k) + ": "))
        elif isinstance(o, (list, tuple)) and o:
            todo.append(_Text("]"))
            for i in range(len(o) - 1, -1, -1):
                todo += (o[i], _Text("[" if i == 0 else ", "))
        else:
            out.append(json.dumps(o))          # a scalar or an empty container
    return "".join(out)


def _key(s: str, i: int) -> tuple[str, int]:
    """A member name at s[i] and its colon; returns the name and the index after."""
    if s[i:i + 1] != '"':
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes", s, i)
    key, i = _DECODER.raw_decode(s, i)
    i = _WS.match(s, i).end()
    if s[i:i + 1] != ":":
        raise json.JSONDecodeError("Expecting ':' delimiter", s, i)
    return key, i + 1


def _loads(s: str):
    open_, i = [], 0            # open_: [container, name of the member being read]
    while True:
        i = _WS.match(s, i).end()
        c = s[i:i + 1]
        if c in ("{", "["):
            value = {} if c == "{" else []
            i = _WS.match(s, i + 1).end()
            if s[i:i + 1] != ("}" if c == "{" else "]"):
                open_.append([value, None])
                if c == "{":
                    open_[-1][1], i = _key(s, i)
                continue
            i += 1
        else:
            value, i = _DECODER.raw_decode(s, i)
        # Attach the value, closing every container it completes.
        while True:
            i = _WS.match(s, i).end()
            if not open_:
                if i != len(s):
                    raise json.JSONDecodeError("Extra data", s, i)
                return value
            container, key = open_[-1]
            if isinstance(container, dict):
                container[key] = value
            else:
                container.append(value)
            if s[i:i + 1] == ",":
                if isinstance(container, dict):
                    open_[-1][1], i = _key(s, _WS.match(s, i + 1).end())
                else:
                    i += 1
                break
            if s[i:i + 1] != ("}" if isinstance(container, dict) else "]"):
                raise json.JSONDecodeError("Expecting ',' delimiter", s, i)
            open_.pop()
            value, i = container, i + 1
