// Pairs src/mem/bad_suppression.cc, so only its seeded rule fires.
