"""Line fits: argument checks."""

import pytest

from heiswalk.errors import ConfigError
from heiswalk.fitting import _fit_line, fit_exponential, fit_loglog


def test_bad_arguments_are_config_errors():
    calls = [
        lambda: _fit_line([1.0], [1.0]),
        lambda: _fit_line([2.0, 2.0], [1.0, 3.0]),
        lambda: fit_loglog([0.0, 1.0], [1.0, 2.0]),
        lambda: fit_exponential([0, 1], [4.0, 0.0]),
    ]
    for call in calls:
        with pytest.raises(ConfigError):
            call()
