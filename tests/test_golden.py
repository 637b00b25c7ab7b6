"""Golden pins for the document format: any change to how state is encoded
shows up here as a different hash."""

import hashlib
import json
import shutil
from pathlib import Path

from chainanchor import cli
from chainanchor.demo import run_demo
from chainanchor.groupmath import DESK
from chainanchor.world import FORMAT_VERSION, World

# `chainanchor setup g --seed 7` as written by format 1.
V1_SETUP_SEED_7 = Path(__file__).parent / "data" / "world-v1-setup-seed7.json"


def test_demo_seed_42_state_hash():
    world, failures = run_demo(42)
    assert not failures
    assert world.state_hash() == (
        "d9ef165a0b9d90ee7ffc1913a0149767a6cbfb857a7bc3a3d645c64372d9796a")


def test_demo_seed_42_transcript():
    # the protocol history, independent of the world file format
    world, failures = run_demo(42)
    assert not failures
    text = world.transcript_text()
    assert text.splitlines()[-1].startswith("[done] final state hash")
    kept = text[:text.rstrip("\n").rindex("\n") + 1]
    assert hashlib.sha256(kept.encode()).hexdigest() == (
        "2de55545ff1727c216497cd7876268d199d3df88190a7c2c195ed394bedd17f1")


def test_setup_seed_7_world_file_bytes(tmp_path, capsys):
    path = tmp_path / "W"
    assert cli.main(["setup", "g", "--seed", "7", "--world", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0fbd8a70e1c58ef795c2783efdcaa37f90626e08fc7a70d11bb40469075d9ae6")


def test_v1_fixture_is_the_format_1_setup_file():
    assert hashlib.sha256(V1_SETUP_SEED_7.read_bytes()).hexdigest() == (
        "4a0ec123f755ade668fca206a7d3125195caaed3e0729804571b0f25ca6e9c92")


def test_v1_world_file_loads_as_a_fresh_world():
    world = World.load(str(V1_SETUP_SEED_7))
    assert world.to_doc() == World.create("g", DESK, 7).to_doc()


def test_v1_world_file_runs_a_session_and_is_saved_as_current_format(
        tmp_path, capsys):
    path = str(tmp_path / "w.json")
    shutil.copy(V1_SETUP_SEED_7, path)
    for cmd in (("enroll", "u"), ("join", "u"), ("prove", "u"),
                ("register", "u"), ("tx", "u", "ping"), ("mine", "node0")):
        assert cli.main([*cmd, "--world", path]) == 0, cmd
    capsys.readouterr()
    assert json.loads(Path(path).read_text())["format"] == FORMAT_VERSION == 2
