"""Minimal s-expression reader and printer.

Atoms are integers, the booleans ``#t``/``#f``, and symbols; ``()`` reads
as the empty list.  An integer is an optional sign and ASCII digits, and
reads and prints exactly at any length: ``decimal`` and the reader convert
it ``_DIGITS`` digits at a time, under Python's limit on int/str
conversion whatever it is set to.  Comments run from ``;`` to end of
line.  Positions are tracked so parse errors can point at the offending
input.
"""

from __future__ import annotations

from dataclasses import dataclass


class SexprError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Symbol:
    name: str

    def __repr__(self):
        return self.name


_DELIMS = "()' \t\r\n;"

# digits converted between int and str at a time: below 640, the least
# value ``sys.set_int_max_str_digits`` accepts
_DIGITS = 500
_CHUNK = 10 ** _DIGITS


class Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, msg: str) -> SexprError:
        return SexprError(msg, self.line, self.col)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self):
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def skip_blank(self):
        while self.pos < len(self.text):
            c = self.peek()
            if c in " \t\r\n":
                self.advance()
            elif c == ";":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
            else:
                return

    def read(self):
        """Read one expression; open lists wait on an explicit stack."""
        open_lists = []
        while True:
            self.skip_blank()
            if self.pos >= len(self.text):
                raise self.error("unterminated list" if open_lists
                                 else "unexpected end of input")
            c = self.peek()
            if c == "(":
                self.advance()
                open_lists.append([])
                continue
            if c == ")":
                if not open_lists:
                    raise self.error("unexpected ')'")
                self.advance()
                item = open_lists.pop()
            else:
                item = self.read_atom()
            if not open_lists:
                return item
            open_lists[-1].append(item)

    def read_atom(self):
        start = self.pos
        while self.pos < len(self.text) and self.peek() not in _DELIMS:
            self.advance()
        token = self.text[start:self.pos]
        if not token:
            raise self.error("empty atom")
        if token == "#t":
            return True
        if token == "#f":
            return False
        n = integer(token)
        return Symbol(token) if n is None else n

    def at_end(self) -> bool:
        self.skip_blank()
        return self.pos >= len(self.text)


def integer(token: str):
    """The int that ``token`` spells as an optional sign and ASCII digits,
    converted ``_DIGITS`` digits at a time, or None if it spells none."""
    digits = token[1:] if token.startswith(("+", "-")) else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    n = 0
    for k in range(0, len(digits), _DIGITS):
        chunk = digits[k:k + _DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if token[0] == "-" else n


def read(text: str):
    """Read exactly one s-expression."""
    r = Reader(text)
    out = r.read()
    if not r.at_end():
        raise r.error("trailing input after expression")
    return out


def write(obj) -> str:
    """Render ``obj``; the lists being written wait on an explicit stack,
    so a list nested any depth deep needs no recursion."""
    if not isinstance(obj, (list, tuple)):
        return _atom(obj)
    out = ["("]
    stack = [iter(obj)]
    first = True  # no item of the innermost open list written yet
    while stack:
        x = next(stack[-1], _END)
        if x is _END:
            stack.pop()
            out.append(")")
            first = False
            continue
        if not first:
            out.append(" ")
        if isinstance(x, (list, tuple)):
            out.append("(")
            stack.append(iter(x))
            first = True
        else:
            out.append(_atom(x))
            first = False
    return "".join(out)


_END = object()


def _atom(obj) -> str:
    if obj is True:
        return "#t"
    if obj is False:
        return "#f"
    if isinstance(obj, int):
        return decimal(obj)
    if isinstance(obj, Symbol):
        return obj.name
    raise TypeError(f"cannot render {obj!r} as an s-expression")


def decimal(n: int) -> str:
    """The decimal numeral of ``n``, at any length."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    (sign, n) = ("-", -n) if n < 0 else ("", n)
    chunks = []  # the digits, ``_DIGITS`` at a time, least significant first
    while n >= _CHUNK:
        (n, r) = divmod(n, _CHUNK)
        chunks.append(str(r).zfill(_DIGITS))
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))
