"""Helpers shared by the core-layer tests."""

from __future__ import annotations

import hashlib
import os
import re

#: ``repro.atomicio.quarantine`` names: ``<stem>-<sha1[:12]><ext>``.
_QUARANTINE_NAME = re.compile(r"(?P<stem>.+)-(?P<digest>[0-9a-f]{12})(?P<ext>\.\w+)")


def quarantined_names(directory: str) -> list[str]:
    """The original ``<stem><ext>`` of every file in a quarantine dir, sorted.

    One entry per file, so the list length is the file count.  Each name
    must carry the sha1 prefix of the file's own bytes.
    """
    names = []
    for name in os.listdir(directory):
        match = _QUARANTINE_NAME.fullmatch(name)
        assert match is not None, f"not a quarantine name: {name}"
        with open(os.path.join(directory, name), "rb") as handle:
            digest = hashlib.sha1(handle.read()).hexdigest()[:12]
        assert match["digest"] == digest, name
        names.append(match["stem"] + match["ext"])
    return sorted(names)
