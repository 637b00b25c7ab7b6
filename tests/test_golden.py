"""Golden pins for the document format: any change to how state is encoded
shows up here as a different hash."""

import hashlib

from chainanchor import cli
from chainanchor.demo import run_demo


def test_demo_seed_42_state_hash():
    world, failures = run_demo(42)
    assert not failures
    assert world.state_hash() == (
        "bcc1e99b7ef51c6645ca4aae283fbae4e93ea265c6fcd039bde7aeb394090fb8")


def test_setup_seed_7_world_file_bytes(tmp_path, capsys):
    path = tmp_path / "W"
    assert cli.main(["setup", "g", "--seed", "7", "--world", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4a0ec123f755ade668fca206a7d3125195caaed3e0729804571b0f25ca6e9c92")
