static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[4] = {7, -4};
int g1[3] = {-8, 6};
static int f0(int a, int b) {
    int r = a - (b + 1);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    g0[(unsigned int)((0 % 5)) % 4u] = (((v0 % 7) / 2) >> 0);
    int v1 = 15;
    mix((unsigned int)((v0 <= 2)));
    int a0[6] = {-2, 6};
    v1 -= 3;
    {
        int w0 = 5;
        while (w0 > 0) {
            a0[(unsigned int)((-18 == 2)) % 6u] = v0;
            mix((unsigned int)(((((10 == -14) < (14 >> 6)) << 1) >> 7)));
            w0 = w0 - 1;
        }
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
