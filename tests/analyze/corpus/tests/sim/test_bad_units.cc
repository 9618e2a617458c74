// Pairs src/sim/bad_units.cc, so only its seeded rule fires.
