"""The demos' stdout, pinned byte for byte by SHA-256."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import child_env

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, digest",
    (
        ("code_families.py", "96253c1f2c181a3fe7ccb98e06456885d39cd2c234f6f8cd79ea874013ed295a"),
        ("pir_walkthrough.py", "a71da043bbe503ef142c7c1e9c2111edf3b6c343b287aeef40c6003a57c2dfbe"),
        ("star_products.py", "ade3a75c91cf2ceed9d286ec62a9530cbb3b57f82c42622ae673c92c00ace391"),
    ),
)
def test_demo_stdout_digest(demo, digest):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
