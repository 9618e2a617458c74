// Pairs src/core/bad_thread.cc, so only its seeded rule fires.
