from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=60)
settings.register_profile("deep", derandomize=True, max_examples=500)
settings.load_profile("deterministic")
