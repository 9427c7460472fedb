"""Sherlock-style network files.

The format is a bare whitespace-separated numeric stream (conventionally
one number per line):

    n_inputs  n_outputs  n_hidden_layers  size_1 .. size_h
    then, per layer, per neuron: its input weights followed by its bias.

Layer order is input -> hidden(s) -> output; neuron order follows the
declared sizes.  ``strict`` rejects trailing tokens.  Whether ReLU is
applied after the final layer is not part of the format; it is a flag on
the returned network (defaulting on, matching the bundled examples).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import EmptyFile, MalformedFile
from .network import Network


def parse_sherlock(path, final_relu: bool = True, strict: bool = True) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise EmptyFile(f"{path}: no tokens")
    return parse_sherlock_tokens(tokens, final_relu=final_relu, strict=strict, origin=str(path))


def parse_sherlock_tokens(
    tokens: Iterable[str], final_relu: bool = True, strict: bool = True, origin: str = "<tokens>"
) -> Network:
    vals = []
    for t in tokens:
        try:
            vals.append(float(t))
        except ValueError:
            raise MalformedFile(f"{origin}: non-numeric token {t!r}") from None
    pos = 0

    def take_int(what):
        nonlocal pos
        if pos >= len(vals):
            raise MalformedFile(f"{origin}: missing {what}")
        v = vals[pos]
        pos += 1
        if not np.isfinite(v) or v != int(v) or v < 0:
            raise MalformedFile(f"{origin}: {what} must be a nonnegative integer, got {v}")
        return int(v)

    n_in = take_int("input count")
    n_out = take_int("output count")
    n_hidden = take_int("hidden layer count")
    sizes = [n_in]
    for h in range(n_hidden):
        sizes.append(take_int(f"size of hidden layer {h + 1}"))
    sizes.append(n_out)
    if min(sizes) < 1:
        raise MalformedFile(f"{origin}: layer sizes must be positive")
    weights = []
    biases = []
    for li in range(len(sizes) - 1):
        m, n = sizes[li], sizes[li + 1]
        need = n * (m + 1)
        if pos + need > len(vals):
            raise MalformedFile(
                f"{origin}: layer {li} needs {need} numbers, only {len(vals) - pos} left"
            )
        block = np.asarray(vals[pos : pos + need]).reshape(n, m + 1)
        pos += need
        weights.append(block[:, :m])
        biases.append(block[:, m])
    if strict and pos != len(vals):
        raise MalformedFile(f"{origin}: {len(vals) - pos} trailing tokens")
    return Network(tuple(weights), tuple(biases), final_relu=final_relu)


def serialize_sherlock(net: Network) -> str:
    """One number per line, token-compatible with the parser."""
    out = [net.n_inputs, net.n_outputs, net.n_layers - 1]
    out.extend(net.sizes[1:-1])
    for w, b in zip(net.weights, net.biases):
        for row, bias in zip(w, b):
            out.extend(row.tolist())
            out.append(float(bias))
    return "\n".join(_fmt(v) for v in out) + "\n"


def _fmt(v) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def write_sherlock(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_sherlock(net))
