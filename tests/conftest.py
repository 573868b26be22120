from hypothesis import settings

settings.register_profile("twistdance", deadline=None, max_examples=60)
# More examples for the validation properties, run in CI with --hypothesis-profile=thorough.
settings.register_profile("thorough", deadline=None, max_examples=2000)
settings.load_profile("twistdance")
