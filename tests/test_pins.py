"""Every pinned output of tests/data/PINS but the deep `ci` checks, byte
for byte with exit code 0, each run in-process through `pins.run`."""

import pytest

import pins

# inputs, and the golden that test_resolutions reads itself
NOT_PINS = {"PINS", "D8xD8.grp", "D8xD8xZ2.grp", "M11.grp", "z4_minimal_resolution.txt"}


@pytest.mark.parametrize("pin", [pin for pin in pins.read() if not pin.ci],
                         ids=lambda pin: pin.expect)
def test_pinned_output(pin):
    problem = pins.check(pin)
    assert problem is None, problem


def test_every_pinned_file_is_in_the_manifest():
    files = {path.name for path in pins.DATA.iterdir()} - NOT_PINS
    assert files == {pin.expect for pin in pins.read() if not pin.expect.startswith("last:")}
