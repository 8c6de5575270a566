"""Sparse polynomial arithmetic over F_p, independent of slchyp.

The coordinate-change generator moves a fixture by a linear map and a unit
rescale before slchyp ever sees it, so the moved polynomial must be computed
here: a polynomial is a dict from exponent triples (a, b, c) to nonzero
residues mod p.
"""

import re

VARS = "xyz"
_TOKEN = re.compile(r"\s*(?:(\d+)|([xyz])|(.))")


def _add_into(acc, m, c, p):
    c = (acc.get(m, 0) + c) % p
    if c:
        acc[m] = c
    else:
        acc.pop(m, None)


def add(f, g, p):
    out = dict(f)
    for m, c in g.items():
        _add_into(out, m, c, p)
    return out


def mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            _add_into(out, (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2]), c1 * c2, p)
    return out


def power(f, e, p):
    out = {(0, 0, 0): 1}
    for _ in range(e):
        out = mul(out, f, p)
    return out


def scale(f, c, p):
    return {m: v * c % p for m, v in f.items() if v * c % p}


def parse(text, p):
    """Parse the fixture grammar (integers, x, y, z, +, -, *, ^, parentheses)."""
    tokens = [t for t in _TOKEN.findall(text) if any(t)]
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("", "", "")

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        sign = 1
        if peek()[2] == "-":
            take()
            sign = -1
        acc = scale(term(), sign % p, p)
        while peek()[2] in ("+", "-"):
            op = take()[2]
            t = term()
            acc = add(acc, t if op == "+" else scale(t, p - 1, p), p)
        return acc

    def term():
        acc = factor()
        while peek()[2] == "*":
            take()
            acc = mul(acc, factor(), p)
        return acc

    def factor():
        num, var, op = take()
        if num:
            base = {(0, 0, 0): int(num) % p} if int(num) % p else {}
        elif var:
            e = [0, 0, 0]
            e[VARS.index(var)] = 1
            base = {tuple(e): 1}
        elif op == "(":
            base = expr()
            if take()[2] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
        else:
            raise ValueError(f"unexpected {op!r} in {text!r}")
        if peek()[2] == "^":
            take()
            base = power(base, int(take()[0]), p)
        return base

    out = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def substitute_linear(f, matrix, p):
    """f(M x): variable i goes to sum_j matrix[i][j] * x_j."""
    images = []
    for row in matrix:
        img = {}
        for j, c in enumerate(row):
            if c % p:
                e = [0, 0, 0]
                e[j] = 1
                img[tuple(e)] = c % p
        images.append(img)
    out = {}
    for m, c in f.items():
        t = {(0, 0, 0): c}
        for i in range(3):
            t = mul(t, power(images[i], m[i], p), p)
        out = add(out, t, p)
    return out


def det3(m, p):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    ) % p


def to_text(f):
    """Render in the slchyp grammar, highest total degree last."""
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=lambda m: (sum(m), m)):
        factors = [str(f[m])] if f[m] != 1 or not any(m) else []
        for v, e in zip(VARS, m):
            if e:
                factors.append(v if e == 1 else f"{v}^{e}")
        parts.append("*".join(factors))
    return "+".join(parts)
