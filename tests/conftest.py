from hypothesis import settings

# Property tests draw the same examples on every run (derandomize), keep no
# example database, and stay small enough to add only seconds to the suite.
settings.register_profile("qcut", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("qcut")
