"""Import pmmwm from this checkout's sources, as the benchmark does."""

import run

run._import_program()
