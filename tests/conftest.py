from hypothesis import settings

settings.register_profile("twistdance", deadline=None, max_examples=60)
# More examples for the validation properties, run in CI with --hypothesis-profile=thorough.
settings.register_profile("thorough", deadline=None, max_examples=2000)
settings.load_profile("twistdance")


def pytest_addoption(parser):
    parser.addoption(
        "--small-scope-events",
        type=int,
        default=4,
        help="largest diagram, in events, of the exhaustive checks in test_small_scope.py",
    )
