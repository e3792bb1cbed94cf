from hypothesis import settings

# Property tests run the same examples on every run and never time out on a
# slow or shared machine; no example database, so earlier runs cannot change
# which examples come first.
settings.register_profile("pvpipeline", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("pvpipeline")
