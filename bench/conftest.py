import _program

_program.load()
