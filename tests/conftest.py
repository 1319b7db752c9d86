import pytest

from trackstitch.mot_io import Detection


@pytest.fixture
def detections_built(monkeypatch):
    """A list that grows by one entry per Detection constructed while the test runs."""
    built = []
    check = Detection.__post_init__

    def counting(self):
        built.append(None)
        check(self)

    monkeypatch.setattr(Detection, "__post_init__", counting)
    return built
