"""Analysis of asynchronous OFDM networks over Poisson transmitter fields."""

from .link import *
from .sinr import *
from .timing import *
from .analytics import *
from .simulation import *

__version__ = "0.1.0"
