"""Static guard: every tunable constant is read somewhere in the program.

A field of `Constants` that no module reads still shows in every record and
still accepts an override, so changing it would silently change nothing."""

import ast
from dataclasses import fields
from pathlib import Path

import omsim
from omsim.params import Constants


def test_every_constant_is_read_outside_params():
    read = set()
    for path in Path(omsim.__file__).parent.glob("*.py"):
        if path.name == "params.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a fault bound is named by string and read with getattr
                read.add(node.value)
    unread = [f.name for f in fields(Constants) if f.name not in read]
    assert not unread, "constants nothing reads: %s" % ", ".join(unread)
