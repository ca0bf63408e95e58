// fixture: process-input positives — main, its argv, and getenv.
namespace fx {
int jobs(int argc, char** argv) { return argc > 1 ? argv[1][0] : 0; }
const char* seed() { return std::getenv("SEED"); }
}  // namespace fx

int main() { return 0; }
