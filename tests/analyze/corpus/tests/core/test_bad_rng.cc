// Pairs src/core/bad_rng.cc, so only its seeded rule fires.
