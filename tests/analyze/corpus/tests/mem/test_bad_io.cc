// Pairs src/mem/bad_io.cc, so only its seeded rule fires.
