from hypothesis import settings

# deterministic draws keep the suite replayable; each test sets max_examples
settings.register_profile("hyperlim", derandomize=True, deadline=None)
settings.load_profile("hyperlim")
