from hypothesis import settings

# The CI run of the float formatter's tests: `pytest tests/test_fmt.py
# --hypothesis-profile=ci`.  Derandomized, so a failure repeats, with
# enough examples to reach rare exponents and bit patterns.
settings.register_profile("ci", derandomize=True, max_examples=5000, deadline=None)
