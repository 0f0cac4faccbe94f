"""Line fits: argument checks, and no fit without evidence."""

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from heiswalk.errors import ConfigError
from heiswalk.fitting import _fit_line, fit_exponential, fit_loglog


def test_bad_arguments_are_config_errors():
    calls = [
        lambda: _fit_line([2.0, 2.0], [1.0, 3.0]),
        lambda: fit_loglog([0.0, 1.0], [1.0, 2.0]),
        lambda: fit_exponential([0, 1], [4.0, 0.0]),
    ]
    for call in calls:
        with pytest.raises(ConfigError):
            call()
    # one point, or an infinite y, is no evidence: a fit of NaNs, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (_fit_line([1.0], [1.0]), _fit_line([1.0, 2.0], [1.0, np.inf]),
                    fit_exponential([], [])):
            assert all(math.isnan(v) for v in astuple(fit))
